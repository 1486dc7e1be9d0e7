(** Axis-aligned bounding boxes. *)

type t = { xmin : float; ymin : float; xmax : float; ymax : float }

val make : float -> float -> float -> float -> t
  [@@cts.raises "Invalid_argument"]
(** [make xmin ymin xmax ymax]. Raises [Invalid_argument] when inverted. *)

val of_points : Point.t list -> t
  [@@cts.raises "Invalid_argument"]
(** Tight box around a non-empty list of points; raises
    [Invalid_argument] on an empty one. *)

val width : t -> float
val height : t -> float

val longest_side : t -> float
(** The larger of width and height — the parameter [l] of the paper's
    complexity analysis. *)

val half_perimeter : t -> float

val expand : t -> float -> t
(** Grow by a margin on every side. *)

val contains : t -> Point.t -> bool
