(** The one regression gate over {!Qor} run records ([cts_run
    compare], [make qor-gate]).

    Each scalar metric from {!Qor.metrics} is classified against its
    per-metric threshold into a typed verdict: improved, unchanged,
    regressed, new (present only in the candidate — e.g. a counter
    added since the baseline was written), or dropped (present only in
    the baseline). Only [Regressed] gates; informational metrics (tree
    shape, gauges, histogram totals) are shown when they move but
    never fail the gate, and the non-deterministic runtime section
    ({!Qor.t.spans}) is ignored entirely.

    All float decisions go through {!Numerics.Float_cmp}: epsilon-equal
    values are unchanged, and a delta must exceed its threshold
    {e definitively} ([definitely_lt]) to regress — a delta exactly at
    the threshold passes.

    Domain-safety: comparison and rendering mutate only call-local
    accumulators; reports are immutable values. Safe from any
    domain. *)

type direction =
  | Lower_better  (** Skew, latency, wirelength, buffer area... *)
  | Higher_better  (** Slew margin. *)
  | Informational  (** Reported when changed; never gates. *)

type threshold = { abs_tol : float; rel_tol : float; direction : direction }
(** A metric regresses when its adverse delta definitively exceeds
    [max abs_tol (rel_tol *. |baseline|)]. *)

val default_threshold : string -> threshold
(** The one threshold table, keyed by {!Qor.metrics} name.
    - QoR rows: timing metrics gate lower-better at 2% relative with a
      sub-ps absolute floor, wire and buffer metrics at 2–5%,
      ["slew_margin.min_ps"] higher-better at 5%; the other slew-margin
      points and ["tree.*"] are informational.
    - ["obs.*"] counters measure work and gate lower-better at
      max(16, 5%), unknown counters included, so a new cost source is
      gated from the first baseline that records it. Exceptions:
      ["obs.parallel.spawn_shortfall"] has zero slack (any shortfall is
      a degraded pool), ["obs.run.span_cache_misses"] gates at
      max(8, 5%), and ["obs.run.span_cache_hits"], ["obs.dp.pruned"]
      and ["obs.dp.fallbacks"] are informational.
    - ["rate.*"] percentages gate higher-better with 2 points of
      absolute slack.
    - ["gauge.*"], ["hist.*"] and any other unknown name are
      informational. *)

type verdict = Improved | Unchanged | Regressed | New | Dropped | Changed
(** [Changed] is an informational metric that moved; [New]/[Dropped]
    are metrics present on only one side (never regressions). *)

type row = {
  metric : string;
  base : float option;
  cand : float option;
  verdict : verdict;
}

type report = {
  rows : row list;  (** Baseline metric order, then candidate-only. *)
  n_regressed : int;
  n_improved : int;
  warnings : string list;
      (** Label/profile/scale/sink-count/version mismatches: the two
          records may not be comparing the same experiment. *)
}

val of_metrics :
  ?threshold:(string -> threshold) ->
  baseline:(string * float) list ->
  (string * float) list ->
  report
(** [of_metrics ~baseline candidate] — core comparison over raw metric
    lists, candidate positional (exposed so tests can model older-schema
    baselines with missing metrics). *)

val compare_snapshots :
  ?threshold:(string -> threshold) -> baseline:Qor.t -> Qor.t -> report
(** {!of_metrics} over {!Qor.metrics} of the baseline and the
    (positional) candidate, plus metadata-mismatch warnings. *)

val render : report -> string
(** Delta table via {!Tables.render} — metric, baseline,
    candidate, delta, relative delta, verdict — restricted to rows
    worth reading (everything except unchanged metrics), followed by
    warnings and a one-line summary. *)

val has_regression : report -> bool

val exit_code : report -> int
(** [0] when clean, [6] when any metric regressed — the exit contract
    of [cts_run compare] ([make qor-gate] relies on it). *)

val compare_files :
  ?threshold:(string -> threshold) ->
  baseline:string ->
  string ->
  (report, string) result
(** Load both record files through {!Qor.load_file} (strict reader)
    and compare. [Error] carries the offending path and covers every
    input [cts_run compare] maps to exit 2: a missing or unreadable
    file, malformed/truncated JSON, and a [qor_version] other than
    {!Qor.schema_version}. *)
