(** Top-level buffered clock tree synthesis (Chapter 4 of the paper).

    Levelized topology generation (nearest-neighbour matching with the
    farthest-from-centroid heuristic, Sec. 4.1.1) drives merge-routing
    ({!Merge_routing}) level by level until a single subtree remains; a
    root driver buffer is then planted at the clock source. Optional
    H-structure re-estimation/correction (Sec. 4.1.2) re-pairs the four
    grandchildren of each level's sibling merges.

    Domain-safety: per-pair merge tasks run on a {!Parallel} pool and
    write no shared state: each returns its merged port, the two ports
    its final merge joined and the stats of its committed merges, and
    the coordinating domain folds those results in pair order after the
    parallel section. Results are bit-identical for any pool size. *)

type result = {
  tree : Ctree.t;  (** Root is the source driver buffer. *)
  est_latency : float;  (** Bottom-up latency estimate (s). *)
  est_skew : float;  (** Accumulated imbalance estimate (s). *)
  levels : int;
  snaked_wirelength : float;  (** Total balance-stage snaking (um). *)
  inserted_buffers : int;  (** Buffers inserted along routing paths. *)
  detoured_merges : int;
  flippings : int;  (** H-structure pairs actually corrected. *)
}

val synthesize :
  ?config:Cts_config.t -> ?blockages:Blockage.t -> ?pool:Parallel.t ->
  ?check:bool -> Delaylib.t -> Sinks.spec list -> result
  [@@cts.raises "Check_failed,Invalid_argument"]
(** Synthesize a buffered clock tree over the given sinks. The default
    configuration is {!Cts_config.default} on the delay library.
    [blockages] are macro regions buffers must avoid (wires may cross
    them). Raises [Invalid_argument] on an empty or invalid sink list.

    [check] (default [false]; tests turn it on) runs the
    {!Ctree_check} invariant verifier on every subtree after each
    merge level and on the finished tree, raising
    [Ctree_check.Check_failed] at the first violating level — so a
    broken invariant is caught where it was introduced, not at the
    root.

    [pool] (default {!Parallel.default_pool}) runs each level's
    independent merge-routing pairs concurrently. {b Determinism}: each
    merge task returns what it produced, the main domain folds the
    returned stats in pair order, and node ids are renumbered canonically
    before returning, so the result — tree, netlist, and every counter —
    is bit-identical to a sequential run at any pool size. *)

val synthesize_bisection :
  ?config:Cts_config.t -> ?blockages:Blockage.t -> ?pool:Parallel.t ->
  ?check:bool -> Delaylib.t -> Sinks.spec list -> result
  [@@cts.raises "Check_failed,Invalid_argument"]
(** Fixed-topology variant (the paper's complexity analysis notes the
    flow drops to O(n l^2) when the topology is given): the merge order
    comes from recursive median bisection of the sink set along the
    longer bounding-box axis — a balanced, placement-driven binary
    topology — and each merge still runs the full merge-routing
    machinery. H-structure handling does not apply (the topology is
    fixed); [flippings] is always 0.

    [pool] parallelizes the recursion near the root (left and right
    subtrees fork onto the pool); each subtree returns the stats of its
    merges in execution order and the caller folds them left, right,
    own merge, so the result is bit-identical to a sequential run.
    [check] verifies the finished tree as in {!synthesize}. *)

val verify_tree : Delaylib.t -> Cts_config.t -> Ctree.t ->
  Ctree_check.violation list
  [@@cts.raises "Invalid_argument"]
(** The one full check of a finished tree; empty list = clean. It
    reports a root that is not a buffer ({!Ctree_check.Root_not_buffer})
    and every structural problem, canonical preorder ids included. Only
    on a buffer-rooted tree with no structural problem does it then run
    the electrical sections: {!Ctree_check.timing}'s walk from
    {!Ctree.source_slew} (per-stage slews, buffer input-slew ranges) and
    its independently accumulated sink latencies compared against
    {!Timing.analyze_tree} (prescribed sink offsets added back) within
    1 ps. A merge- or sink-rooted tree is a verdict, not an exception:
    only a buffer cell the library does not hold raises
    [Invalid_argument]. *)
