(** Zero-skew merge segment calculation (Sec. 2.2, Tsay's formula).

    Under the Elmore model, merging two subtrees with root delays [t1],
    [t2] and load capacitances [c1], [c2] over a distance [l] of wire
    places the tapping point at [x * l] from side 1 with

    {[ x = (t2 - t1 + alpha l (c2 + beta l / 2))
           / (alpha l (c1 + c2 + beta l)) ]}

    where [alpha]/[beta] are the unit wire resistance/capacitance. When
    [x] falls outside [0, 1] the merge point snaps to the nearer subtree
    and the other wire is {e snaked} (extended beyond [l]) to balance. *)

type merged = {
  ms : Geometry.Trr.t;  (** The new merge segment. *)
  len1 : float;  (** Wire length to side 1 (including any snaking). *)
  len2 : float;
  delay : float;  (** Zero-skew delay from the new segment to any sink. *)
  cap : float;  (** Downstream capacitance seen at the new segment. *)
}

val merge :
  Circuit.Tech.t -> arc1:Geometry.Trr.t -> t1:(float[@cts.unit "ps"]) -> c1:(float[@cts.unit "ff"]) ->
  arc2:Geometry.Trr.t -> t2:(float[@cts.unit "ps"]) -> c2:(float[@cts.unit "ff"]) -> merged
(** Merge two subtrees. The geometric distance is taken between the two
    arcs (closest approach). *)

val wire_elmore : Circuit.Tech.t -> length:(float[@cts.unit "um"]) -> load:(float[@cts.unit "ff"]) -> (float[@cts.unit "ps"])
(** Elmore delay of [length] um of wire into a lumped [load]:
    [alpha l (beta l / 2 + load)]. *)

val snake_length_for_delay :
  Circuit.Tech.t -> load:(float[@cts.unit "ff"]) -> delay:(float[@cts.unit "ps"]) -> (float[@cts.unit "um"])
(** Wire length whose Elmore delay into [load] equals [delay] (the
    positive quadratic root); 0 for non-positive delays. *)

type bounded = {
  bms : Geometry.Trr.t;
      (** Merge {e region}: the union of all feasible tap slices — fat
          when the skew budget leaves freedom, an arc when it does not.
          Future merges measure distance to this region, which is where
          bounded-skew saves wirelength. *)
  r_lo : float [@cts.unit "um"];
  r_hi : float [@cts.unit "um"];
      (** Feasible tap range: wire toward side 1 may be anything in
          [r_lo, r_hi]; side 2 gets [total_l - r]. *)
  total_l : float [@cts.unit "um"];  (** Total wire spent by this merge (um). *)
  bdelay_min : float;  (** Merged delay interval (s), over the range. *)
  bdelay_max : float;
  bcap : float;
}

val merge_bounded :
  Circuit.Tech.t -> skew_bound:(float[@cts.unit "ps"]) -> arc1:Geometry.Trr.t ->
  t1_min:(float[@cts.unit "ps"]) -> t1_max:(float[@cts.unit "ps"]) ->
  c1:(float[@cts.unit "ff"]) -> arc2:Geometry.Trr.t ->
  t2_min:(float[@cts.unit "ps"]) -> t2_max:(float[@cts.unit "ps"]) ->
  c2:(float[@cts.unit "ff"]) -> bounded
  [@@cts.raises "Invalid_argument"]
(** Bounded-skew merge (Cong/Kahng/Koh/Tsao's BST relaxation, ref [4] of
    the paper): subtree delays are {e intervals}; the tap may land
    anywhere in a feasible range (kept wide enough that the union of
    delay intervals over the range still fits in [skew_bound]), and wire
    is snaked onto the faster side only when even the best tap exceeds
    the bound. With [skew_bound = 0] this degenerates to {!merge}.
    Raises [Invalid_argument] on a negative (or NaN) [skew_bound]. *)

val bounded_slice :
  Geometry.Trr.t -> Geometry.Trr.t -> total_l:(float[@cts.unit "um"]) -> r:(float[@cts.unit "um"]) ->
  Geometry.Trr.t
(** The tap slice for a specific split [r]: points within [r] of the
    first arc and [total_l - r] of the second (detour-free for direct
    merges). Falls back to the closest point of arc 1 when numerically
    empty. *)
