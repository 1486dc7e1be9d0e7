(** Static verifier for synthesized clock trees.

    Prong B of the cts_lint subsystem: where [lib/lint] checks the
    {e sources} for determinism hazards, this module checks every
    {e artifact} — a {!Ctree.t} — against the structural and electrical
    invariants the synthesis flow promises:

    - the structural rules of {!Ctree.problems}: unique, canonical
      preorder ids; sinks at leaves; internal arity 1 or 2; every routed
      length finite and never below the endpoints' Manhattan distance
      (snaking slack is nonnegative);
    - per-stage slew at every stage endpoint within the library limit;
    - every buffer driven with an input slew inside the characterized
      fit range of the delay library;
    - sink latencies matching the reference analyzer within 1 ps.

    It sits beside the analyzer it checks and calls
    {!Timing.analyze_stage} directly. The full check, the root and the
    reference latencies included, is {!Cts.verify_tree}. Every
    comparison is written so that a NaN or an infinity fails it.

    Domain-safety: checking mutates only call-local scratch (a visited
    table and a work queue); trees and the delay library are read-only.
    Safe from any domain. *)

type violation =
  | Structure of Ctree.problem  (** A broken structural rule. *)
  | Root_not_buffer of { id : int }
  | Stage_slew of {
      driver : int;
      node : int;
      slew : float;
      limit : float [@cts.unit "ps"];
    }
      (** Slew at a stage endpoint [node] (driven from the stage rooted
          at [driver]) exceeds the library limit. *)
  | Buffer_input_slew of {
      id : int;
      slew : float;
      lo : float [@cts.unit "ps"];
      hi : float [@cts.unit "ps"];
    }
      (** A buffer is driven with an input slew outside the
          characterized fit range [lo, hi]: its delay would be an
          extrapolation the library never validated. *)
  | Latency_mismatch of {
      sink : string;
      got : float [@cts.unit "ps"];
      expected : float [@cts.unit "ps"];
      tol : float [@cts.unit "ps"];
    }
  | Missing_sink of { sink : string }
      (** A sink present in the reference latencies is absent from the
          tree (or vice versa; [expected] side is named). *)

val to_string : violation -> string

val structure : canonical_ids:bool -> Ctree.t -> violation list
(** {!Ctree.problems} as violations: needs no library, so it checks
    partial trees during synthesis too, whose ids are not canonical
    yet ([~canonical_ids:false]). *)

val timing :
  Delaylib.t -> Cts_config.t -> source_slew:(float[@cts.unit "ps"]) ->
  Ctree.t -> violation list * (string * (float[@cts.unit "ps"])) list
  [@@cts.raises "Invalid_argument"]
(** Stage-by-stage electrical walk, breadth-first over
    {!Timing.analyze_stage}: returns slew and input-range violations and
    the computed absolute sink latencies (offsets not applied). The
    region root sees [source_slew]; a [Merge]-rooted region is driven by
    the configuration's [assumed_driver]. Stage slews are checked
    against its [slew_limit], and buffer input slews against [(0, hi)]
    with [hi] the top of [Delaylib.slew_domain]: the library clamps a
    faster edge pessimistically, so only the slow side of the fit domain
    is a hard bound. The walk is the independent side of the latency
    cross-check, so it does not share {!Timing.analyze_tree}'s fold.
    Raises [Invalid_argument] on a sink-rooted region. *)

val compare_latencies :
  got:(string * (float[@cts.unit "ps"])) list ->
  expected:(string * (float[@cts.unit "ps"])) list ->
  violation list
(** The latency cross-check: every [expected] sink's latency against
    the first [got] binding of its name within 1 ps (a missing name is
    a {!Missing_sink}), then every [got] sink absent from [expected].
    Linear in the sinks. *)

exception Check_failed of violation list
(** The (non-empty) violation list of a failed check; {!Cts.synthesize}
    raises it under [~check:true]. *)
