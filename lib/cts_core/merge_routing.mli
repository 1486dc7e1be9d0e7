(** Merge-routing (Sec. 4.2): the three-stage replacement of classical
    merge-segment calculation.

    1. {b Balance}: if the delay difference between the two subtrees
       exceeds what routing between them can absorb, the faster subtree
       is pre-equalized by progressive wire snaking — alternating
       driving buffers and slew-legal wire segments (Sec. 4.2.1).
    2. {b Route}: bi-directional maze routing ({!Maze}) picks the merge
       bin of minimum delay difference while inserting buffers along
       both paths via {!Run.eval} — the slew-driven greedy walk, or the
       optimal candidate-set DP when {!Cts_config.t} [insertion] is
       [Optimal_dp] (DESIGN.md 5g).
    3. {b Binary search}: the merge point [M] slides along the segment
       between the two paths' last fixed nodes, driven by delay-library
       timing analysis, until the residual difference converges
       (Sec. 4.2.3, Fig. 4.5). 

    Domain-safety: merge evaluation mutates only call-local scratch (side tables, accumulators); returned stats are applied to shared counters by the coordinator, never here. *)

type stats = {
  snaked : float;  (** Wire length added by the balance stage (um). *)
  inserted_buffers : int;  (** Buffers planted along both paths. *)
  residual : float [@cts.unit "ps"];  (** |delay difference| left after binary search. *)
  detoured : bool;  (** The chosen bin lies off the direct region. *)
}

val merge :
  ?blockages:Blockage.t -> Delaylib.t -> Cts_config.t -> Port.t -> Port.t ->
  Port.t * stats
  [@@cts.raises "Invalid_argument"]
(** Merge two subtrees into one, returning the merged port (rooted at a
    {!Ctree.Merge} node, or at a {!Ctree.Buf} when the merge-node stub
    guard planted a buffer on [M]). With [blockages], buffers planted
    along the paths, by wire snaking, or on the merge node are legalized
    to blockage-free locations (wires may still cross blockages, per the
    ISPD 2009 rules). *)

val placer :
  Blockage.t -> Lpath.t -> cur:(float[@cts.unit "um"]) ->
  (float[@cts.unit "um"]) -> (float[@cts.unit "um"]) option
(** [placer blocks path ~cur d_ideal] legalizes a planned buffer
    position along [path] (the [?place] argument {!Run.eval} receives):
    [d_ideal] itself when legal, else a slide back toward [cur]
    (slew-safe) when that gains ground, else the first legal position
    past the blockage. [None] when nothing from the blockage through the
    path end is legal — the run is then infeasible and the merge-node
    guard plants a legalized buffer instead (the previous fallback
    returned the off-path distance [length +. 1.], which downstream
    clamping would have placed {e inside} the blockage at the path
    end). Exposed for the fully-blocked-path regression test. *)

val balance_capacity :
  Delaylib.t -> Cts_config.t -> Port.t -> (float[@cts.unit "um"]) ->
  (float[@cts.unit "ps"])
(** Estimated delay a buffered run of the given length can add to a side
    — the threshold the balance stage compares the delay difference
    against. Exposed for its unit test. *)
