(** Rectilinear routing paths (polylines of axis-aligned segments).

    Obstacle-free connections are single-corner staircases; when
    placement blockages force a detour, paths run through intermediate
    waypoints (each consecutive waypoint pair is joined by an
    axis-aligned staircase). Buffers planted "at distance d along the
    path" need the corresponding planar point. 

    Domain-safety: paths are immutable values; construction uses call-local scratch only. *)

type t

val make : ?vertical_first:bool -> Geometry.Point.t -> Geometry.Point.t -> t
(** Single-corner staircase from [a] to [b]: horizontal first, then
    vertical (default), or the mirrored orientation — both have the same
    Manhattan length. *)

val via :
  ?vertical_first:bool -> Geometry.Point.t -> Geometry.Point.t ->
  Geometry.Point.t -> t
(** [via a w b] routes through the waypoint [w] (two staircases). *)

val length : t -> float
(** Total wire length of the polyline (>= the endpoint Manhattan
    distance; equality iff no detour). *)

val point_at : t -> (float[@cts.unit "um"]) -> Geometry.Point.t
(** Point at a given distance from the start; clamped to the ends. *)

val waypoints : t -> Geometry.Point.t list
(** All polyline vertices, start to end. *)
