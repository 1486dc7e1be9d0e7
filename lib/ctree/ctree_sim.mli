(** Whole-tree transient verification.

    Mirrors the paper's evaluation methodology: "the worst slew, the skew,
    and the maximum latency are obtained from SPICE simulation of the
    clock tree netlist" (Sec. 5.1). The tree is cut into stages at
    buffers; each stage is simulated with {!Spice_sim.Transient} and the
    waveform arriving at each downstream buffer's gate seeds that
    buffer's stage.

    The tree root must be a buffer ({!Ctree.Buf}) — the clock-source
    driver. 

    Domain-safety: simulation state (waveforms, node arrays and the one
    sample buffer every stage of a call records into) is allocated per
    call; trees are read-only here. Safe from any domain. *)

type metrics = {
  latency : float;  (** Max source-to-sink 50%-50% delay (s). *)
  skew : float;  (** Max minus min sink delay (s). *)
  worst_slew : float;  (** Worst 10%-90% slew over all measured nodes (s). *)
  worst_slew_node : string;
  sink_delays : (string * float) list;  (** Per-sink source-to-sink delay. *)
  n_stages : int;
  all_settled : bool;
      (** False when some stage hit the simulation time limit — indicates
          a grossly overloaded buffer. *)
}

val simulate :
  ?config:Spice_sim.Transient.config -> Circuit.Tech.t -> Ctree.t -> metrics
(** [simulate tech tree] drives the root buffer with a realistic curved
    edge of 10%-90% slew {!Ctree.source_slew} and reports tree-level
    metrics. Raises [Invalid_argument] if the root is not a buffer, or
    if the source waveform never crosses 50% Vdd (possible only for a
    non-finite [vdd]; the message names the source slew). A sink that never rises is reported through
    an infinite delay and [all_settled = false]. *)
