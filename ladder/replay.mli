(** The synthesis level loop, re-driven from benchmark code with a span
    around every layer call. *)

val synthesize : Delaylib.t -> Cts_config.t -> Sinks.spec list -> Cts.result
(** Sequentially what {!Cts.synthesize} computes, bit for bit, with
    [Obs] phases ["topology.level_pairing"], ["merge_routing.merge"] and
    ["maze.select"] (a probe on each merge's input ports, timed apart
    from the merge). Supports the [H_none] and [H_correct] modes; raises
    [Invalid_argument] on [H_reestimate] or an empty sink list. *)

val mismatches : Cts.result -> Cts.result -> string list
(** The fields on which two results differ: floats compared by their
    bits, the trees by netlist MD5. Empty when bit-identical. *)
