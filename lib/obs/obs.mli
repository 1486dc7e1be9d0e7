(** Deterministic observability: typed counters, histograms,
    cache-effectiveness gauges and hierarchical phase spans for the
    synthesis hot paths, with export as a summary table, as Chrome
    trace-event JSON, and (through the run record of [lib/qor]) as a
    canonical, diffable file.

    {b Determinism contract.} The layer is measurement-only: no counter,
    histogram, gauge or timer value ever feeds back into a synthesis
    decision, so the synthesized tree is bit-identical whether the layer
    is enabled or not. Counter and gauge storage is domain-sharded: each
    domain owns a stack of accumulators in domain-local storage, whose
    bottom element on the main domain holds the process totals.
    {!Parallel.map} brackets every pool task with {!task_enter} /
    {!task_leave} and absorbs the resulting {!delta}s into the caller in
    task-index order, so a parallel run reports counts identical to a
    sequential run on the same input. Spans live in the same
    accumulators and travel in the same deltas. Span ids, wall-clock
    times and GC words are {e not} deterministic; the run record
    therefore confines them to an optional runtime section that the CI
    gate omits.

    {b Overhead.} Disabled (the default), every recording entry point
    checks one [bool ref] and returns — instrumented hot loops pay a
    single predictable branch and no allocation.

    {b Wall-clock.} Phase timers read time exclusively through
    {!Obs_clock.now} ([lib/obs/obs_clock.ml]), the one sanctioned
    wall-clock site under [lib/] outside [lib/report] (lint rule L3).

    Domain-safety: counter, gauge, histogram and completed-span
    accumulators and the open-span stack live in domain-local storage
    (never shared between domains); cross-domain merging happens only
    through {!task_leave} / {!task_absorb} delta hand-off on the
    coordinator, and span ids come from one atomic counter. *)

(** {1 Counter taxonomy} *)

type counter =
  | Maze_selects  (** Merge-location searches ({!Maze.select} calls). *)
  | Maze_bins_evaluated
      (** Split points probed across all maze searches (two run
          evaluations each). *)
  | Snake_stages  (** Balance-stage snaking iterations. *)
  | Bisection_iters  (** Binary-search timing evaluations. *)
  | Merges_routed  (** Merge-routing invocations (incl. explored ones). *)
  | Placer_adjusted  (** Buffer positions moved off a blockage. *)
  | Placer_infeasible  (** Runs with no legal buffer position left. *)
  | Run_evals
      (** Greedy run analyses: {!Run.eval_greedy} (also inside
          {!Run.eval}) and {!Run.eval_chain} calls (also inside
          {!Run.eval_side}, under either engine). *)
  | Run_buffers_placed
      (** Buffers planted by greedy walks: each {!Run.chain} step once
          per maze side (under either engine: the DP's greedy incumbent
          replays the side's chain too), plus the buffers an evaluation
          plants past its chain prefix (all of them for
          {!Run.eval_greedy}). *)
  | Dp_evals
      (** Candidate-set DP run analyses: {!Run.eval_dp} calls, and
          {!Run.eval}/{!Run.eval_side} calls under [Optimal_dp]. *)
  | Dp_candidates  (** DP candidate states generated (before pruning). *)
  | Dp_pruned  (** DP candidates dropped as inferior (Li–Shi prune). *)
  | Dp_fallbacks
      (** DP evals where the greedy incumbent won (or the DP had no
          feasible complete solution). *)
  | Span_cache_hits
      (** {!Run.span} lookups. The DP reads its b{^2} + 2b + 1 spans
          once per context — per maze side, or per {!Run.eval_dp} /
          {!Run.eval} call — not once per evaluation. *)
  | Span_cache_misses
      (** Span-table cells computed: buffers × load classes per table
          build — once per synthesis ({!Run.build_span_table}), or at
          a direct caller's first {!Run.span} on a key. *)
  | Delay_evals_single
      (** Single-wire delay-library lookups: one per
          {!Delaylib.eval_single}, {!Delaylib.wire_delay} or
          {!Delaylib.stage_delay} call, whatever the surfaces read. *)
  | Delay_evals_branch  (** Branch delay-library lookups. *)
  | Char_sims  (** Characterization transient simulations. *)
  | Timing_stages  (** Stage analyses ({!Timing.analyze_stage}). *)
  | Timing_analyses  (** Whole-region analyses ({!Timing.analyze_driven}). *)
  | Topology_edge_costs  (** Eq. 4.1 edge-cost evaluations. *)
  | Topology_pairings  (** Pairs produced by level pairing. *)
  | Pool_spawn_shortfall
      (** Worker domains a {!Parallel.create} asked for but could not
          spawn (resource exhaustion degraded the pool). Recorded once
          per missing worker at creation; normally 0. *)

type histogram =
  | Buffers_per_level  (** Buffers committed per merge level. *)
  | Merges_per_level  (** Merges committed per merge level. *)
  | Dp_candidates_per_level
      (** DP candidate states generated per merge level (empty under the
          greedy insertion engine). *)

(** {1 Gauges}

    Cache-effectiveness gauges answer the question hit/miss counters
    cannot: was a cache cold, right-sized, or thrashing? They accumulate
    with {!gauge_add} exactly like counters and are absorbed from task
    deltas in task-index order, so they are as schedule-independent as
    the counters. *)

type gauge =
  | Dp_memo_slots  (** Slots allocated across DP memo tables. *)
  | Dp_memo_filled  (** DP memo slots actually written. *)

val gauge_add : gauge -> int -> unit
(** Add to a gauge (task-safe; absorbed like a counter). No-op when
    disabled or the amount is zero. *)

val gauge_read : gauge -> int
(** Current value in the calling domain's active accumulator; 0 when
    disabled. *)

(** {1 Enabling} *)

val set_enabled : bool -> unit
(** Turn recording on or off (default off). Toggle from the main domain
    while no pool job is in flight. *)

val enabled : unit -> bool

(** {1 Recording} *)

val incr : ?n:int -> counter -> unit
(** Add [n] (default 1) to a counter in the current domain's active
    accumulator. No-op when disabled. *)

val hist_add : histogram -> bucket:int -> int -> unit
(** Add to one histogram bucket. No-op when disabled or the amount is
    zero. *)

val read : counter -> int
(** Current value in the calling domain's active accumulator — on the
    main domain outside any task, the absorbed process total. 0 when
    disabled. *)

val reset : unit -> unit
(** Zero the calling domain's active accumulator, drop its recorded
    phase spans and rewind the span-id counter. *)

(** {1 Task sharding (used by [Parallel.map])} *)

type delta
(** The increments and spans one pool task recorded, detached from any
    domain. *)

val no_delta : delta

type task_ctx
(** The coordinator-side context a pool job captures at submission: the
    open span (if any) under which every task span of the job should
    hang. Capture once per job with {!task_context} on the submitting
    domain and pass the same value to every {!task_enter}. *)

val task_context : unit -> task_ctx
(** Snapshot the calling domain's innermost open span (none when the
    layer is disabled — task spans are then not recorded). *)

type task_token
(** Proof that {!task_enter} ran, carrying what {!task_leave} must undo:
    whether an accumulator was pushed, and the task span in flight. *)

val task_enter : ?ctx:task_ctx -> unit -> task_token
(** Push a task-private accumulator on the calling domain's stack and,
    when [ctx] carries a submission context, open a ["pool.task"] span
    parented under the coordinator span. Returns the token to pass to
    {!task_leave}. *)

val task_leave : task_token -> delta
(** Close the task span (if any), pop the task-private accumulator and
    return its content as a delta ({!no_delta} when {!task_enter}
    pushed nothing). *)

val task_absorb : delta -> unit
(** Fold a task's delta into the calling domain's active accumulator,
    its spans after those already logged there. The pool calls this in
    task-index order after the job completes. *)

(** {1 Phases} *)

type gc_delta = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}
(** [Gc.quick_stat] movement across one phase. Words are OCaml words
    allocated (minor includes what was later promoted); collection
    counts are completed GC slices. *)

type span = {
  span_id : int;  (** Unique per process run (atomic allocation). *)
  parent_id : int;  (** [-1] for a root span. *)
  depth : int;  (** 0 for roots; parent depth + 1 otherwise. *)
  domain : int;  (** Domain the span ran on (trace lane). *)
  span_name : string;
  t_start : float;
  t_stop : float;  (** Seconds, {!Obs_clock.now} timebase. *)
  gc : gc_delta option;
      (** Present only for spans run on the main domain: worker-domain
          heap movement measures pool internals, not synthesis phases,
          and would vary with task placement. *)
}
(** One timed phase in the span tree. *)

val phase : string -> (unit -> 'a) -> 'a
(** [phase name f] runs [f] and, when enabled, records a wall-clock span
    around it (also on exceptions). Phases nest: a phase opened inside
    another becomes its child in the span tree. Each domain logs its
    spans in completion order; a pool task's spans join the caller's
    log when its job completes, in task-index order. *)

(** {1 Export} *)

type snapshot = {
  counters : (string * int) list;
      (** Every counter by its stable dotted identifier
          (["maze.bins_evaluated"], ...), in one fixed reporting order. *)
  gauges : (string * int) list;  (** Every gauge, in one fixed order. *)
  histograms : (string * (int * int) list) list;
      (** [(bucket, value)] pairs sorted by bucket. *)
  spans : span list;  (** Log order (see {!phase}). *)
}

val snapshot : unit -> snapshot
(** Freeze the calling domain's active accumulator, spans included. *)

val derived_rates : snapshot -> (string * float) list
(** Cache-effectiveness percentages computed from the deterministic
    sections (span cache hit rate, DP memo fill rate), rounded to
    0.01%. Rates whose denominator is zero are omitted. *)

val summary : snapshot -> string
(** Human-readable table: counters, gauges, derived hit/fill rates,
    non-empty histograms, and the phase tree (indented by depth, with
    per-phase GC columns when recorded). *)

val trace_json : snapshot -> string
(** Chrome trace-event JSON (load in [chrome://tracing] or Perfetto):
    one ["X"] complete event per phase span on its domain's [tid] lane
    (with span id / parent / depth and GC delta in [args]), flow events
    (["s"]/["f"]) linking cross-domain task spans to their submitting
    coordinator span, ["C"] counter events for counters and gauges, and
    one ["I"] instant event per non-empty histogram. *)

val write_trace : string -> snapshot -> unit
(** Write {!trace_json} to a file. *)

val validate_trace : string -> (int, string) result
(** See {!Obs_json.validate_trace}: check a trace string and return the
    event count. *)
