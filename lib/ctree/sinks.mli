(** Clock sink specifications — the input to every synthesis algorithm. 

    Domain-safety: specs are immutable; helper routines use call-local scratch only. *)

type spec = { name : string; pos : Geometry.Point.t; cap : float }

val centroid : spec list -> Geometry.Point.t
  [@@cts.raises "Invalid_argument"]
(** Centroid of the sink positions; raises [Invalid_argument] on an
    empty list. *)

val bbox : spec list -> Geometry.Bbox.t
  [@@cts.raises "Invalid_argument"]
(** Tight box around the sink positions; raises [Invalid_argument] on
    an empty list. *)

val validate : spec list -> string list
(** Violations: duplicate names, a NaN or infinite coordinate or
    capacitance (naming the sink and the field), non-positive
    capacitance, empty list. *)
