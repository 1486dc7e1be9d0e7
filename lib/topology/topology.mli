(** Levelized topology generation (Sec. 4.1.1 of the paper).

    Level by level, candidate subtree roots are paired for merging. The
    edge cost follows Eq. 4.1 with unit distance weight:
    [cost = distance + beta * |delay1 - delay2|], and the
    matching heuristic repeatedly picks the node {e farthest from the
    centroid of all sinks} and pairs it with its remaining nearest
    neighbour. With an odd node count, a seed node — the one with maximum
    latency — is promoted unpaired to the next level ("the nodes in the
    next level have larger delays", so this balances better than pairing
    it). 

    Domain-safety: pairing uses call-local arrays and accumulators; inputs are immutable. Safe from any domain. *)

type item = {
  pos : Geometry.Point.t;
  delay : float;  (** Current subtree latency (s). *)
}

type pairing = {
  pairs : (int * int) list;  (** Index pairs to merge at this level. *)
  seed : int option;  (** Unpaired max-latency node (odd counts). *)
}

val default_beta : float
(** Cost weight converting delay difference to equivalent micrometres
    (um/s); calibrated so 1 ps of imbalance weighs like ~40 um of wire. *)

val level_pairing :
  ?beta:float -> centroid:Geometry.Point.t -> item array -> pairing
  [@@cts.raises "Invalid_argument"]
(** One level of the greedy farthest-point matching. The array must
    contain at least two items, and [beta] must be finite and
    non-negative: a negative weight would reward delay imbalance, and
    the nearest-neighbour sweep's pruning bound needs [beta >= 0].
    Positions and delays are assumed finite. Each level sorts once by
    distance from the centroid and once by x; the neighbour search
    sweeps the x order outward and stops on each side once the x gap
    alone exceeds the best cost (DESIGN.md 5u). The result equals the
    O(n^2) scan's: ties go to the lowest index. *)

val edge_cost : ?beta:float -> item -> item -> float
(** Eq. 4.1 cost of pairing two nodes, [manhattan + beta * |delay1 -
    delay2|] — exposed for H-structure re-estimation (Method 1). *)
