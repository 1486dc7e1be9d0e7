(** Static verifier for synthesized clock trees.

    Prong B of the cts_lint subsystem: where [lib/lint] checks the
    {e sources} for determinism hazards, this module checks every
    {e artifact} — a {!Ctree.t} — against the structural and electrical
    invariants the synthesis flow promises:

    - single-parent / acyclic structure with unique node ids;
    - canonical preorder ids (what {!Ctree.renumber} establishes and
      the deterministic netlist relies on);
    - sinks at leaves only, internal arity at most 2, no childless
      internal nodes;
    - every wire geometrically consistent with its recorded length:
      routed length may exceed the endpoints' Manhattan distance
      (snaking), never undercut it — snaking slack is nonnegative;
    - per-stage slew at every stage endpoint within the library limit;
    - every buffer driven with an input slew inside the characterized
      fit range of the delay library;
    - sink latencies matching the reference analyzer within tolerance.

    This library cannot depend on [delaylib] or [cts_core] (they sit
    above it), so timing-dependent checks are parameterized by an
    {!env} of closures; [Cts.verify_tree] builds one from the delay
    library and the active configuration.

    Domain-safety: checking mutates only call-local scratch (a visited
    table and a work queue); trees and the environment are read-only.
    Safe from any domain. *)

type violation =
  | Duplicate_id of { id : int }
  | Non_canonical_id of { expected : int; got : int }
      (** Preorder position [expected] (1-based) holds node [got]. *)
  | Sink_not_leaf of { id : int; name : string }
  | Overfull_node of { id : int; children : int }  (** Arity > 2. *)
  | Childless_internal of { id : int }
  | Short_edge of {
      parent : int;
      child : int;
      length : float;
      manhattan : float [@cts.unit "um"];
    }
      (** Recorded routed length undercuts the endpoint Manhattan
          distance: negative snaking slack. *)
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

type env = {
  stage :
    drive:Circuit.Buffer_lib.t ->
    input_slew:float ->
    Ctree.t ->
    (Ctree.t * (float[@cts.unit "ps"]) * (float[@cts.unit "ps"])) list;
      (** Endpoints [(node, delay, slew)] of the buffer stage rooted at
          the given node, mirroring [Timing.analyze_stage]. *)
  default_driver : Circuit.Buffer_lib.t;
      (** Driver assumed for a buffer-less (partial) region root. *)
  slew_limit : float;  (** Library slew limit (s). *)
  slew_range : (float[@cts.unit "ps"]) * (float[@cts.unit "ps"]);
      (** Characterized input-slew fit domain of the delay library. *)
  source_slew : float;  (** Input slew presented at the tree root. *)
}

val structure : ?canonical_ids:bool -> Ctree.t -> violation list
(** Structural invariants only — no [env] needed, usable on partial
    trees during synthesis. [canonical_ids] (default [true]) also
    demands ids be exactly the 1-based preorder numbering. *)

val timing :
  env -> Ctree.t -> violation list * (string * (float[@cts.unit "ps"])) list
  [@@cts.raises "Invalid_argument"]
(** Stage-by-stage electrical walk: returns slew/input-range violations
    and the computed absolute sink latencies (offsets not applied). A
    [Merge]-rooted region is driven by [env.default_driver]. *)

val verify :
  ?canonical_ids:bool ->
  ?require_root_buffer:bool ->
  ?expected_latencies:(string * (float[@cts.unit "ps"])) list ->
  ?tol:(float[@cts.unit "ps"]) ->
  env ->
  Ctree.t ->
  violation list
  [@@cts.raises "Invalid_argument"]
(** The full check: {!structure} plus {!timing} plus — when
    [expected_latencies] is given — comparison of every sink's computed
    latency against the reference within [tol] (default [1e-12] s).
    [require_root_buffer] (default [true]) demands the root be the
    planted source driver. *)

exception Check_failed of violation list
(** The (non-empty) violation list of a failed check; {!Cts.synthesize}
    raises it under [~check:true]. *)
