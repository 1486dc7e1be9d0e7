(** Cost-regression gate over {!Obs_snapshot} files (the [obs diff]
    side of Obs v2: [cts_run obs diff], [make obs-gate]) — the
    {!Qor_compare} classifier pointed at cost metrics instead of
    quality metrics.

    The QoR gate answers "is the tree still good?"; this gate answers
    "did producing it get more expensive?". Metrics come from
    {!Obs_snapshot.metrics} (counters, gauges, histogram totals,
    derived cache rates), all deterministic at any pool size, so the
    gate never flakes on scheduling.

    {b Budget rationale.} Work counters (maze bins, delay-library
    evals, DP transitions...) gate Lower-better with a small absolute
    floor plus 5% relative slack — honest drift from an intentional
    algorithm change should move the baseline, not widen the budget.
    Span-cache misses (span-table cells computed) gate tighter
    absolutely (8) because the count is fixed by the library and one
    table per synthesis; the hit counter, one per lookup, is
    informational so moved work is not double-counted.
    Derived [rate.*] percentages gate Higher-better with 2 percentage
    points of absolute slack. Gauges and histogram totals are
    informational. [parallel.spawn_shortfall]
    gates at zero: any shortfall is a degraded pool.

    Domain-safety: pure functions over immutable snapshots; safe from
    any domain. *)

val default_threshold : string -> Qor_compare.threshold
(** Per-metric budgets keyed by {!Obs_snapshot.metrics} name, as
    described above. Unknown names (future counters) default to the
    work-counter budget, so a new cost source is gated from the first
    baseline that records it. *)

val compare_snapshots :
  ?threshold:(string -> Qor_compare.threshold) ->
  baseline:Obs_snapshot.t ->
  Obs_snapshot.t ->
  Qor_compare.report
(** {!Qor_compare.of_metrics} over the two snapshots' metrics, plus
    label / schema-version mismatch warnings. Render and gate with
    {!Qor_compare.render} / {!Qor_compare.exit_code}. *)

val compare_files :
  ?threshold:(string -> Qor_compare.threshold) ->
  baseline:string ->
  string ->
  (Qor_compare.report, string) result
(** Load both files through {!Obs_snapshot.load_file} (strict reader)
    and compare. [Error] covers every input [cts_run obs diff] maps to
    exit 2: missing/unreadable files, malformed JSON, and an
    [obs_version] newer than this reader. *)
