(** Planar points with Manhattan (L1) geometry.

    Coordinates are floats in micrometres. Clock routing is rectilinear,
    so the Manhattan distance is the routing distance between two points. *)

type t = { x : float; y : float }

val make : float -> float -> t
val origin : t

val manhattan : t -> t -> float
(** [manhattan a b] is [|ax - bx| + |ay - by|]. *)

val lerp : t -> t -> float -> t
(** [lerp a b t] is the affine interpolation [(1-t)*a + t*b]. *)

val centroid : t list -> t
  [@@cts.raises "Invalid_argument"]
(** Arithmetic mean of a non-empty list of points; raises
    [Invalid_argument] on an empty one. *)

val equal : ?eps:float -> t -> t -> bool
(** Componentwise comparison with absolute tolerance [eps] (default 1e-9). *)
