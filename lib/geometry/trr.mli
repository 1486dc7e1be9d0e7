(** Tilted rectangular regions and Manhattan arcs.

    The Deferred-Merge Embedding algorithm manipulates {e Manhattan arcs}
    (segments of slope +-1, possibly degenerate to a point) and {e tilted
    rectangular regions} (TRRs): the set of points within a given Manhattan
    radius of a Manhattan-arc core.

    Internally everything lives in 45-degree rotated coordinates
    [u = x + y], [v = x - y], where Manhattan distance becomes Chebyshev
    (L-infinity) distance and a TRR becomes an axis-parallel rectangle, so
    intersection and distance are trivial interval operations. *)

type t
(** A non-empty TRR. *)

val of_point : Point.t -> t
(** Degenerate TRR: a single point. *)

val of_arc : Point.t -> Point.t -> t
(** [of_arc a b] is the Manhattan arc with endpoints [a] and [b]. The
    endpoints must lie on a common slope +-1 line (or coincide); raises
    [Invalid_argument] otherwise (tolerance 1e-6). *)

val inflate : t -> float -> t [@@cts.raises "Invalid_argument"]
(** [inflate t r] is the set of points within Manhattan distance [r >= 0]
    of [t]. Raises [Invalid_argument] on a negative (or NaN) [r]. *)

val intersect : t -> t -> t option
(** Region intersection; [None] when empty. *)

val distance : t -> t -> float
(** Minimum Manhattan distance between the two regions (0 if they meet). *)

val center : t -> Point.t
(** Center point of the region. *)

val closest_point : t -> Point.t -> Point.t
(** [closest_point t p] is a point of [t] at minimum Manhattan distance
    from [p]. *)

val core_endpoints : t -> Point.t * Point.t
(** The two extreme corners of the region's core segment: for a proper
    Manhattan arc its endpoints, for a point twice that point, for a fat
    region the endpoints of its major diagonal-of-core. *)

val is_arc : ?eps:float -> t -> bool
(** True when the region is (within [eps], default 1e-6) a Manhattan arc
    or a point, i.e. degenerate in at least one rotated dimension. *)

val contains : ?eps:float -> t -> Point.t -> bool
(** Membership with tolerance. *)

val sample : t -> float -> float -> Point.t
(** [sample t a b] with [a, b] in [0,1] parameterizes the region; corners
    map to corner parameter values. Useful for property tests. *)
