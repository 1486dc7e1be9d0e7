(** Transient simulation of one clock-tree stage.

    A stage is a driver — a two-inverter buffer fed by a known input
    waveform — driving a lumped RC tree (the interconnect up to the next buffers' gates and sinks).
    Integration is backward Euler with semi-implicit (linearized per
    Newton iteration) alpha-power inverter stamps. Only the tree root
    carries a nonlinear device, so the constant tree part of the
    backward-Euler matrix is factored once per call ({!Rc_flat.factor}).
    Each step then costs one O(n) rhs sweep, at most [newton_iters]
    scalar Newton iterations on the root unknown (each touching only the
    root's children) and one O(n) back-substitution, which also sweeps
    the next step's rhs once the stage has left rest. A step allocates
    nothing, and steps a stage spends at rest (input still within
    [0, vt]) are recorded without solving (DESIGN.md 5p); every sample
    keeps the bits of a full solve. Trees of one shape under one driver
    run as the lanes of one loop ({!simulate_lanes}); {!simulate} is its
    one-lane case.

    This staged decomposition is exact for clock trees because buffers
    present only their (constant) gate capacitance to the upstream stage;
    it is how the paper's own delay/slew library cuts trees at buffered
    nodes (Sec. 3.2).

    Domain-safety: simulation state is per-call, apart from a
    {!buffer} the caller passes in and owns; no global state. *)

type driver =
  | Driven_buffer of Circuit.Buffer_lib.t * Waveform.t
      (** A buffer whose stage-1 gate sees the waveform; its output stage
          drives the tree root. *)

type config = {
  dt : float;  (** Timestep (s), finite and > 0. *)
  t_margin : float;
      (** The settle check only runs once at least [t_margin / 10] has
          been simulated from the input's start (s), finite and >= 0. *)
  t_max : float;  (** Hard stop (s), finite and > 0. *)
  newton_iters : int;
      (** Fixed Newton iterations per step (at least 1). *)
  stop_at : float option;
      (** [None]: run until settled or [t_max]. [Some l], a fraction of
          Vdd in (0, 1]: also end right after recording the first
          sample at which every recorded series (the root and every
          tag) has had a sample [>= l *. vdd], the comparison
          {!Waveform.crossing} makes. The samples are then a prefix of
          the [None] run's, bit for bit, so every first crossing at or
          below [l] is too (DESIGN.md 5s). Characterization, which
          reads only 10/50/90% crossings, stops at 0.9; signoff needs
          the settle check and a stage's whole gate waveform, so it
          keeps [None]. *)
}

val default_config : config
(** dt = 0.5 ps, margin = 1.5 ns, max = 40 ns, 3 Newton iterations, no
    early stop. *)

type result

val simulate_lanes :
  ?config:config -> Circuit.Tech.t -> driver -> Circuit.Rc_tree.t array ->
  result array
  [@@cts.raises "Invalid_argument"]
(** Run [k] trees of one shape, each from an all-quiescent initial state
    (rising edge: every tree node at 0 V), as the lanes of one
    simulation under one [driver]: result [l] is tree [l]'s run, bit for
    bit what {!simulate} returns for it alone, samples, sample count and
    [settled] included (DESIGN.md 5t). The lanes share the input, the
    time grid, the buffer's stage-1 trajectory and its stage-2
    bias; each sweep of the tree solve visits every node once for all
    the lanes it serves, so their dependent chains overlap. Each lane
    keeps its own root Newton exit, rest flags, [stop_at] bookkeeping
    and settle check, and drops out of the sweeps when it ends. [[||]]
    gives [[||]].

    Raises [Invalid_argument] naming a [config] field outside its range,
    or the first lane whose node count, parent array (the preorder
    parent of every node) or tag positions differ from lane 0's. Tag
    names may differ: each lane's result records its own. *)

type buffer
(** A grow-on-demand sample buffer: the rows a run records its time
    grid and samples into before they are copied out into its
    waveforms. One buffer can serve a sequence of {!simulate} calls, so
    only the first calls of the sequence (and a longer stage than any
    before) allocate rows. Every sample a result holds was recorded by
    its own run, so a result is bit for bit the one a fresh buffer
    gives (DESIGN.md 5x). A buffer is mutable state: one buffer must
    not serve two runs at once. *)

val buffer : unit -> buffer
(** An empty buffer, with room for 1,024 samples. *)

val simulate :
  ?config:config -> ?buffer:buffer -> Circuit.Tech.t -> driver ->
  Circuit.Rc_tree.t -> result
  [@@cts.raises "Invalid_argument"]
(** [simulate ?config ?buffer tech driver tree] is the one-lane run of
    {!simulate_lanes}: the stage from an all-quiescent initial state,
    recording every step at the root and every tagged node, into
    [buffer] (a fresh one when omitted). Simulation
    ends early once the input has finished and every tree node has
    settled above 99% Vdd, at the [stop_at] sample, or at [t_max].
    Raises [Invalid_argument] naming a [config] field outside its
    range. *)

val waveform : result -> string -> Waveform.t
  [@@cts.raises "Invalid_argument"]
(** Recorded waveform at a tagged node (the first in preorder when a tag
    repeats). Raises [Invalid_argument] naming the tag and the recorded
    ones when the tree has no such tag. *)

val root_waveform : result -> Waveform.t
(** Waveform at the tree root (the driver/buffer output). *)

val settled : result -> bool
(** Whether the 99% settle check passed. False when the simulation hit
    [t_max] before settling — a sign the stage is too weak to drive its
    load (severe slew violation) — and for a run [stop_at] ended, unless
    the settle check also passed by then. *)

val stage_delay : result -> input:Waveform.t -> tag:string -> float option
  [@@cts.raises "Invalid_argument"]
(** 50%-50% delay from the driver input waveform to a tagged node.
    Raises as {!waveform}. *)

val node_slew : result -> tag:string -> float option
  [@@cts.raises "Invalid_argument"]
(** 10%-90% slew at a tagged node. Raises as {!waveform}. *)
