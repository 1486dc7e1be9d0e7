(** Transient simulation of one clock-tree stage.

    A stage is a driver — either an ideal voltage source or a
    two-inverter buffer fed by a known input waveform — driving a lumped
    RC tree (the interconnect up to the next buffers' gates and sinks).
    Integration is backward Euler with semi-implicit (linearized per
    Newton iteration) alpha-power inverter stamps. Only the tree root
    carries a nonlinear device, so the constant tree part of the
    backward-Euler matrix is factored once per call ({!Rc_flat.factor}).
    Each step then costs one O(n) rhs sweep, [newton_iters] scalar
    Newton iterations on the root unknown (each touching only the
    root's children, with the device biased once per step by
    {!Circuit.Device.bias}), and one O(n) back-substitution.

    This staged decomposition is exact for clock trees because buffers
    present only their (constant) gate capacitance to the upstream stage;
    it is how the paper's own delay/slew library cuts trees at buffered
    nodes (Sec. 3.2). 

    Domain-safety: simulation state is per-call; no global state. *)

type driver =
  | Vsource of Waveform.t
      (** Ideal source: the tree root is forced to the waveform. *)
  | Driven_buffer of Circuit.Buffer_lib.t * Waveform.t
      (** A buffer whose stage-1 gate sees the waveform; its output stage
          drives the tree root. *)

type config = {
  dt : float;  (** Timestep (s). *)
  t_margin : float;
      (** The settle check only runs once at least [t_margin / 10] has
          been simulated from the input's start (s). *)
  t_max : float;  (** Hard stop (s). *)
  newton_iters : int;
      (** Fixed Newton iterations per step for a buffer driver (at least
          1); an ideal source is linear and takes one solve. *)
  record_stride : int;  (** Keep every k-th sample of recorded nodes. *)
}

val default_config : config
(** dt = 0.5 ps, margin = 1.5 ns, max = 40 ns, 3 Newton iterations,
    stride 1. *)

type result

val simulate :
  ?config:config -> Circuit.Tech.t -> driver -> Circuit.Rc_tree.t -> result
(** Run the stage from an all-quiescent initial state (rising edge: every
    tree node at 0 V). Simulation ends early once the input has finished
    and every tree node has settled above 99% Vdd, or at [t_max]. *)

val waveform : result -> string -> Waveform.t
(** Recorded waveform at a tagged node. Raises [Not_found] on unknown
    tags. *)

val root_waveform : result -> Waveform.t
(** Waveform at the tree root (the driver/buffer output). *)

val settled : result -> bool
(** False when the simulation hit [t_max] before settling — a sign the
    stage is too weak to drive its load (severe slew violation). *)

val stage_delay :
  result -> input:Waveform.t -> tag:string -> float option
(** 50%-50% delay from the driver input waveform to a tagged node. *)

val node_slew : result -> tag:string -> float option
(** 10%-90% slew at a tagged node. *)
