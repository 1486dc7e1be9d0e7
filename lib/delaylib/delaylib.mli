(** The pre-characterized delay/slew library (Chapter 3 of the paper).

    For every combination of driving-buffer type and load class, single
    wire stages are simulated over a sweep of (input slew, wire length)
    and three quantities are fitted as polynomial surfaces:

    - buffer intrinsic delay (input 50% -> buffer output 50%),
    - wire delay (buffer output 50% -> load 50%),
    - wire output slew (10%-90% at the load).

    Branch (two-way) components are likewise fitted as trivariate
    polynomials over (input slew, left length, right length), per
    (drive, left-class, right-class).

    Input waveforms are realistic buffer-output shapes produced by
    {!Wave_gen}, not ideal ramps — the whole point of Sec. 3.1.

    Load classes quantize load capacitance. Components ending in a sink
    are looked up through the class nearest the sink's capacitance,
    mirroring the paper's "approximate by a buffer of similar load
    capacitance". 

    Domain-safety: characterization distributes independent sampling jobs over a domain pool with task-local accumulation and fits on the calling domain; the resulting library value is immutable and safe for unsynchronized concurrent reads. *)

module Wave_gen = Wave_gen
(** Re-exported: characterization input waveform generation. *)

type t

type profile = Fast | Accurate
(** Sweep density / fit order ({!sweep}). [Fast] (degree 2, 3 slews by
    5 lengths and 3 slews by 4 lengths a side) is for tests and the QoR
    gate; [Accurate] (degree 4 singles over 5 slews by 7 lengths,
    degree 3 branches over 4 slews by 4 lengths a side) is for
    experiments and the ladder. The accurate sweep is the cheapest
    design found whose error at its held-out points ({!held_out}) stays
    within 0.5 ps for every quantity (DESIGN.md 5ab); the fast one is
    cheaper still, and its error is larger (about 1.2 ps worst). *)

val profile_name : profile -> string
(** ["fast"] or ["accurate"]: the name on the command line and in run
    records. *)

type grid = {
  slews : (float[@cts.unit "ps"]) list;
      (** Nominal input slews (s), each the target of one {!Wave_gen}
          wave. *)
  lengths : (float[@cts.unit "um"]) list;
      (** Wire lengths (um); per side for branches. *)
}
(** Every (slew, length) point of a grid runs at every buffer and at
    every load class (single wires) or class pair (branches). *)

type sweep = {
  single_degree : int;
  single : grid;
  branch_degree : int;
  branch : grid;  (** Every ordered (left, right) pair of its lengths. *)
}

val sweep : profile -> sweep
(** A profile's characterization sweep: its fit degrees and grids, each
    dimension ascending with at least degree + 1 values. *)

val held_out_set : profile -> grid * grid
(** A profile's fixed held-out set, (single-wire grid, branch grid):
    every coordinate off the sweep and inside its domain. *)

type quantity = Buffer_delay | Wire_delay | Wire_slew | Branch_delay | Branch_slew

val quantity_name : quantity -> string
(** ["buffer delay"], ["wire delay"], ..., as the report prints it. *)

type cost = {
  runs : int;  (** Lane runs: {!Spice_sim.Transient.simulate_lanes} calls. *)
  lanes : int;  (** Simulated stages over all runs. *)
  samples : int;
      (** Lane-samples: the samples each lane recorded, summed over the
          lanes; the noise-free cost of a sweep. *)
}

val characterize :
  ?profile:profile -> ?pool:Parallel.t -> Circuit.Tech.t ->
  Circuit.Buffer_lib.t list -> t
  [@@cts.raises "Failure,Invalid_argument"]
(** Run all characterization simulations and fit: ~0.13 s
    ([Accurate]: 297 runs of 1,356 simulations, 382,220 lane-samples)
    and ~0.10 s ([Fast]: 189 runs of 882, 246,745) on one domain of a
    2-CPU x86-64 host, ~0.09 s and ~0.06 s on two. Every library is built here, in the process
    that uses it; nothing reads a library back from a file. The
    simulations, input waveforms included, run at a 1 ps BDF2 step,
    half of signoff's (DESIGN.md 5y). Each simulation stops once every
    node it measures has reached 90% Vdd, the highest crossing the fits
    read ({!Spice_sim.Transient.config}'s [stop_at]). The load classes
    of one (buffer, slew, length), and the class pairs of one (buffer,
    slew, left length, right length), are the lanes of one run
    ({!Spice_sim.Transient.simulate_lanes}).

    The slew coordinate of every fit is its input wave's measured
    10%-90% slew, not the nominal one it was bisected toward, and the
    slew domain spans the measured single-wire slews. The equal-class
    branch pairs (0-0, 2-2, 3-3) at (L1, L2), L1 after L2 in the sweep,
    are not simulated: their samples are the (L2, L1) run's with left
    and right swapped, the mirror image, equal to rounding (DESIGN.md
    5ab). No held-out point is simulated here ({!held_out}).

    Raises [Invalid_argument] naming the problem, before any
    simulation, when [buffers] is empty or names a cell twice. A sample
    whose run misses a crossing it measures is left out of its fit, with
    a warning naming it.

    [pool] (default {!Parallel.default_pool}) distributes the
    independent per-(buffer, slew) sample tasks across domains: 15
    single-wire and 12 branch tasks ([Accurate]); a branch task holds
    every length pair of its slew, so the mirror never crosses tasks.
    The fits then run on the calling domain per (buffer, class) and per
    (buffer, class pair), each over its samples in slew-major order, so
    the library — including fit-report ordering and its {!to_text} — is
    identical at any pool size.

    {b Domain safety}: a characterized [t] is immutable after this
    returns and may be read concurrently from every domain. *)

val to_text : t -> string
(** The library as text: its header line [delaylib v3 PROFILE], tech,
    buffers, classes, domains, the sweep's {!cost}, every fit's
    coefficients at 17 significant digits and the fit report. A pure
    function of the library, so its MD5 pins every fitted bit (the r1
    golden file holds both profiles');
    [cts_run characterize -o] writes it for inspection. Nothing parses
    it. *)

type single_eval = {
  buf_delay : float;  (** Driving-buffer intrinsic delay (s). *)
  wire_delay : float;  (** Buffer output -> load 50%-50% (s). *)
  wire_slew : float;  (** 10%-90% at the load (s). *)
}

val eval_single :
  t -> drive:Circuit.Buffer_lib.t -> load_cap:float -> input_slew:float ->
  length:float -> single_eval
  [@@cts.raises "Invalid_argument"]
(** Look up a single-wire component. Inputs are clamped into the
    characterized domain. The fits live in a flat (buffer slot, load
    class) table; the class comes from {!class_index}. Raises
    [Invalid_argument] for a [drive] cell the library does not hold.
    Counts one [Obs.Delay_evals_single]. *)

val wire_delay :
  t -> drive:Circuit.Buffer_lib.t -> load_cap:(float[@cts.unit "ff"]) ->
  input_slew:(float[@cts.unit "ps"]) -> length:(float[@cts.unit "um"]) ->
  (float[@cts.unit "ps"])
  [@@cts.raises "Invalid_argument"]
(** [(eval_single ...).wire_delay], bit for bit, evaluating only the
    wire-delay surface. Counts one [Obs.Delay_evals_single]. *)

val stage_delay :
  t -> drive:Circuit.Buffer_lib.t -> load_cap:(float[@cts.unit "ff"]) ->
  input_slew:(float[@cts.unit "ps"]) -> length:(float[@cts.unit "um"]) ->
  (float[@cts.unit "ps"])
  [@@cts.raises "Invalid_argument"]
(** [e.buf_delay +. e.wire_delay] for [e = eval_single ...], bit for
    bit, evaluating only those two surfaces. Counts one
    [Obs.Delay_evals_single]. *)

type branch_eval = {
  delay_left : float;
  delay_right : float;
  slew_left : float;
  slew_right : float;
}

val eval_branch :
  t -> drive:Circuit.Buffer_lib.t -> load_cap_left:float ->
  load_cap_right:float -> input_slew:float -> len_left:float ->
  len_right:float -> branch_eval
(** Look up a branch component (wire delays measured from the driving
    buffer's output to each load). *)

val max_length_for_slew :
  t -> drive:Circuit.Buffer_lib.t -> load_cap:float -> input_slew:float ->
  slew_limit:float -> (float[@cts.unit "um"])
  [@@cts.raises "Invalid_argument"]
(** Longest wire this driver can drive while keeping the load slew within
    [slew_limit], assuming the given input slew; clamped to the
    characterized length domain. *)

val buffers : t -> Circuit.Buffer_lib.t list

val first_buffer : t -> Circuit.Buffer_lib.t
(** The head of {!buffers}. Every library has one: {!characterize}
    rejects an empty buffer list. *)

val tech : t -> Circuit.Tech.t

val len_domain : t -> float * float
val slew_domain : t -> float * float

val class_index : t -> (float[@cts.unit "ff"]) -> int
(** Index of the load class a given capacitance maps to:
    [0 .. n_classes - 1], stable across nearby caps. The single-wire
    fits read a load only through its class, so the index is the key
    the span table and the DP memos index flat arrays with.

    The rule is the nearest class in log space, the first on a tie. It
    is computed without [log] by comparing the cap with the precomputed
    geometric-mean boundaries between adjacent classes, which gives the
    same index: see DESIGN.md for the exactness argument. The [log]
    loop still decides a cap within 1e-9 relative of a boundary, a cap
    [<= 0], a non-finite cap, and a cap more than 2{^500} away from the
    classes. *)

val n_classes : t -> int
(** Number of load classes the library quantizes into. *)

val classes : t -> (float[@cts.unit "ff"]) array
(** A copy of the load-class capacitances: positive, and each more than
    1e-6 relative above the last, the ratio {!class_index}'s exactness
    argument needs. *)

val fit_report :
  t -> (string * (float[@cts.unit "ps"]) * (float[@cts.unit "ps"])) list
(** Per-fit [(label, rms residual, max |residual|)] against the
    characterization samples, in seconds. *)

val sweep_cost : t -> cost
(** What the sweep simulated. *)

type accuracy = {
  quantity : quantity;
  in_sample : float [@cts.unit "ps"];  (** Worst |residual| of its fits at the sweep's points (s). *)
  worst : float [@cts.unit "ps"];  (** Worst |error| over the held-out samples (s). *)
  rms : float [@cts.unit "ps"];  (** RMS error over the held-out samples (s). *)
  samples : int;  (** Held-out samples compared. *)
}

type report = { profile : profile; accuracy : accuracy list; cost : cost }

val held_out : ?set:grid * grid -> t -> report
  [@@cts.raises "Invalid_argument"]
(** The library's error off its sweep: [set] (default its profile's
    {!held_out_set}) simulated by the sweep's own lane runs and
    measurements on {!Parallel.default_pool}, each point compared with
    {!eval_single} or {!eval_branch} at its input wave's measured slew
    (both sides of a branch count). [accuracy] lists the five
    quantities in order, and [cost] is the library's {!sweep_cost}.
    About as costly as the characterization itself, which is why
    {!characterize} does not run it. The report is the same at any
    pool size. *)

val render_report : report -> string
(** The report as a header naming the profile, a table with one line
    per quantity, then the sweep's cost: what [cts_run characterize]
    and MODEL-ACC print. *)
