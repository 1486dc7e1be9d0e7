(** The run record: one versioned document per synthesis run.

    The paper's whole evaluation is a QoR story — skew, sink latency,
    slew margin, wirelength, buffer area per benchmark (thesis Ch. 5 /
    the DAC tables). This module is its machine-readable record, and
    the record also carries what the run cost: the deterministic
    {!Obs} counters, gauges and histograms, and on request the span
    tree with wall-clock times. One {!t} per run, serialized through
    the canonical {!Obs_json} writer, read back by one strict reader,
    and gated by one comparator ({!Qor_compare}, [cts_run compare],
    [make qor-gate]).

    {b Determinism contract.} Every field of {!t} except the optional
    runtime section ({!t.spans}) is derived from the synthesized tree,
    the delay library and the deterministic {!Obs} accumulators — all
    bit-identical at any [CTS_DOMAINS] value. Floats are rounded to a
    fixed decimal precision at capture time ({!round3}) and printed
    through {!Obs_json.to_string}'s one canonical number format, so
    the rendered record for a given seed is {e byte-identical} between
    sequential and parallel runs — the property [test/t_qor.ml] locks
    in. Wall-clock may only appear in the runtime section, which
    capture omits unless asked and which {!Qor_compare} ignores.

    {b Versioning rules.} [qor_version] is bumped whenever a field is
    added, removed or changes meaning or unit, and the change that
    bumps it rewrites the committed baselines and fixtures in the same
    commit. The reader accepts exactly {!schema_version}: any other
    version is an error naming [qor_version] and the supported
    version. Unknown object keys are rejected, so typos fail loudly.
    The counter and gauge sections are open maps: a counter added
    without a schema bump reads fine and compares as "new", never as a
    regression.

    Domain-safety: capture mutates only call-local scratch (the
    timing walk's worklist and accumulators); records are immutable
    values. Safe from any domain. *)

val schema_version : int
(** Current schema version (2). *)

type buffer_type_row = { cell : string; count : int; area_x : float }
(** Buffer count and area for one library cell, area in unit-inverter
    equivalents (second stage + first stage size). *)

type slew_margin = {
  stages : int;  (** Buffer stages measured. *)
  min_ps : float;  (** Binding margin: worst stage. *)
  p50_ps : float;
  p95_ps : float;
  max_ps : float;
}
(** Distribution of per-stage slew margin (slew limit minus the
    stage's worst endpoint slew, ps) over all buffer stages, via
    {!Util.Stats.percentile}. *)

type gc = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}
(** {!Obs.gc_delta} of a main-domain span. *)

type span = {
  name : string;
  id : int;
  parent : int;  (** [-1] for roots. *)
  depth : int;
  domain : int;
  start_ms : float;  (** Relative to the earliest span start; 3 decimals. *)
  dur_ms : float;
  gc : gc option;
}
(** One node of the runtime span tree. *)

type t = {
  version : int;
  label : string;  (** Benchmark name or input file; [-dp] for DP runs. *)
  profile : string;  (** Characterization profile ("fast"/"accurate"). *)
  scale : float;
  sinks : int;
  levels : int;
  skew_ps : float;  (** Global skew from {!Timing.analyze_tree}. *)
  max_latency_ps : float;
  mean_latency_ps : float;
  worst_slew_ps : float;
  slew_margin : slew_margin;
  total_wire_um : float;  (** Routed wirelength incl. snaking. *)
  snaked_wire_um : float;  (** Balance-stage snaking alone. *)
  buffer_count : int;
  buffer_area_x : float;  (** Total area, unit-inverter equivalents. *)
  buffers_by_type : buffer_type_row list;  (** Sorted by cell name. *)
  counters : (string * int) list;
      (** {!Obs} counter totals in {!Obs.all_counters} order; empty
          when captured without an {!Obs.snapshot}. *)
  gauges : (string * int) list;  (** {!Obs} gauges, same rule. *)
  histograms : (string * (int * int) list) list;
      (** {!Obs} histograms as [(bucket, value)] pairs, same rule. *)
  spans : span list;
      (** The runtime section: empty unless captured with
          [~runtime:true]. Wall-clock, never compared. *)
}

val round3 : float -> float
(** Fixed capture precision: round to 3 decimals (1 fs in ps units,
    1 nm in um units) so serialized values are decimal-stable. *)

val capture :
  ?label:string -> ?profile:string -> ?scale:float ->
  ?obs:Obs.snapshot -> ?runtime:bool ->
  Delaylib.t -> Cts_config.t -> Cts.result -> t
  [@@cts.raises "Invalid_argument"]
(** Take the record of a finished synthesis. Timing comes from
    {!Timing.analyze_tree} (the deterministic analyzer, not SPICE);
    the slew-margin distribution from the worst endpoint slew of every
    buffer stage, breadth-first from the source driver, against
    [config.slew_limit]; wire and buffer totals from the tree;
    counters, gauges and histograms from [obs] when given. [runtime]
    (default [false]) also keeps [obs]'s span tree, with times rebased
    to the earliest span start. [label] defaults to ["unnamed"],
    [profile] to ["custom"], [scale] to [1.0]. Raises
    [Invalid_argument] when the tree root is not the source driver. *)

val metrics : t -> (string * float) list
(** Canonical scalar metric list, the names {!Qor_compare} gates on:
    the QoR rows (["timing.skew_ps"], ["wire.total_um"],
    ["buffers.count"], ...), then ["obs.<counter>"],
    ["gauge.<gauge>"], ["hist.<histogram>.total"] and
    ["rate.<rate>"] ({!Obs.derived_rates}). The namespaces do not
    overlap. *)

val check_spans : span list -> (unit, string) result
(** Well-formedness of a runtime span tree: span ids unique, no
    orphan parents, child depth = parent depth + 1 (roots at 0),
    children contained in their parent's interval, and same-domain
    siblings non-overlapping — cross-domain siblings (pool tasks) may
    overlap freely. Timing checks allow a small rounding epsilon.
    [Ok ()] on an empty list. *)

val to_json : t -> Obs_json.t
(** Canonical field order; floats pre-rounded per {!round3}. The
    runtime section is omitted when {!t.spans} is empty. *)

val of_json : Obs_json.t -> (t, string) result
(** Strict reader: checks the version, every field's type, and
    rejects unknown keys. The error names the offending path. *)

val render : t -> string
(** Pretty canonical JSON ({!Obs_json.to_string}[ ~pretty:true]). *)

val write_file : string -> t -> unit
  [@@cts.raises "Invalid_argument,Sys_error"]

val load_file : string -> (t, string) result
(** Read ({!Obs_json.read_file}), parse and validate; every error
    names the path. *)
