(** Library-based top-down timing analysis.

    Walks a (partial or complete) clock tree stage by stage, propagating
    {e real estimated slews} through every buffer instead of the
    bottom-up worst-case assumption: each stage's endpoint delays come
    from the pre-characterized {!Delaylib} fits — branch fits when the
    stage is exactly the characterized two-branch shape, single-wire fits
    with Elmore side-load corrections otherwise.

    This is the "accurate timing analysis engine" the paper credits for
    keeping skew low under aggressive insertion: it drives the
    binary-search stage of merge-routing and produces the per-subtree
    delay/skew summaries the top level balances. 

    Domain-safety: analysis walks use a call-local work queue and accumulators; trees and the delay library are read-only here. Safe from any domain. *)

type report = {
  sink_delays : (string * float) list;
      (** Delay from the driver's input to each sink (s), net of the
          sink's useful-skew offset from {!Cts_config.t}
          [sink_offsets] when one is scheduled. *)
  max_delay : float;
  min_delay : float;
  worst_slew : float;  (** Worst estimated slew at any stage endpoint. *)
  stage_slews : float list;
      (** Worst endpoint slew of each stage, in the breadth-first
          order the analysis walks them from the region root. *)
}

val skew : report -> float

type reached =
  | At_sink of { node : Ctree.t; name : string }
  | At_buffer of { node : Ctree.t; cell : Circuit.Buffer_lib.t }
      (** The next stage's driver: its node and its cell. *)
(** Where a stage ends: at a sink, or at the buffer that drives the
    next stage. A merge never ends a stage. *)

type stage_end = {
  reached : reached;
  branch : int;  (** Index of the stage root's edge the endpoint hangs under. *)
  delay : float [@cts.unit "ps"];  (** Delay from the driver input. *)
  slew : float [@cts.unit "ps"];  (** Slew presented at the endpoint. *)
}

val analyze_driven :
  Delaylib.t -> Cts_config.t -> drive:Circuit.Buffer_lib.t ->
  input_slew:float -> Ctree.t -> report
  [@@cts.raises "Invalid_argument"]
(** [analyze_driven dl cfg ~drive ~input_slew region] analyzes the tree
    whose root region is driven by a buffer of type [drive] placed at the
    region root with the given input slew. The region root must not be a
    sink. If the region root is itself a buffer, that buffer is analyzed
    (and [drive] is ignored). *)

val side_delays :
  Delaylib.t -> Cts_config.t -> drive:Circuit.Buffer_lib.t ->
  input_slew:float -> Ctree.t ->
  ((float[@cts.unit "ps"]) * (float[@cts.unit "ps"])) option
  * ((float[@cts.unit "ps"]) * (float[@cts.unit "ps"])) option
  [@@cts.raises "Invalid_argument"]
(** [side_delays dl cfg ~drive ~input_slew region] is the (min, max)
    sink delay under each edge of [region], a two-edge merge driven as in
    {!analyze_driven}; [None] for a side with no sink. Delays are net of
    useful-skew offsets, and each equals the one {!analyze_driven}
    reports for that sink: both run the same stage fold. Merge-routing's
    binary search probes with it; it builds no per-sink list. *)

val analyze_tree : Delaylib.t -> Cts_config.t -> Ctree.t -> report
  [@@cts.raises "Invalid_argument"]
(** Analyze a complete tree whose root is the source driver buffer, its
    input edge {!Ctree.source_slew}. *)

val analyze_stage :
  Delaylib.t -> drive:Circuit.Buffer_lib.t -> input_slew:float -> Ctree.t ->
  stage_end list
  [@@cts.raises "Invalid_argument"]
(** Endpoints of the single buffer stage rooted at the given region:
    each first buffer or sink below the root, with its delay from the
    driver input and the slew presented at it. This is the primitive
    {!analyze_driven} iterates — exported so the {!Ctree_check}
    environment ({!Cts.check_env}) can walk stages with exactly the
    analyzer's numbers. *)

val stage_worst_slew :
  Delaylib.t -> drive:Circuit.Buffer_lib.t -> input_slew:float -> Ctree.t ->
  float
  [@@cts.raises "Invalid_argument"]
(** Worst endpoint slew of the single stage rooted at the given region
    (down to the first buffers/sinks only) — the branch-aware slew check
    merge-routing uses to decide whether a merge node needs its own
    buffer. *)
