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
(** Sweep density / fit order. [Fast] (degree 3, coarse sweep) is for
    tests; [Accurate] (degree 4 singles, degree 3 branches, dense sweep)
    is for experiments. *)

val profile_name : profile -> string
(** ["fast"] or ["accurate"]: the name on the command line and in run
    records. *)

val cache_file : ?path:string -> profile -> string
(** The library cache file of a profile: [path] when given, else
    [".cache/delaylib_<profile>.txt"] under the current directory, one
    file per profile so a run never loads another profile's library.
    The file's directory is created when missing (one level); a failure
    is ignored, and {!load_or_characterize} then only skips the save. *)

val characterize :
  ?profile:profile -> ?pool:Parallel.t -> Circuit.Tech.t ->
  Circuit.Buffer_lib.t list -> t
  [@@cts.raises "Failure,Invalid_argument,Not_found"]
(** Run all characterization simulations and fit: ~0.2 s ([Fast]) and
    ~0.5 s ([Accurate]) on one domain of a 2-CPU x86-64 host. Each
    simulation stops once every node it measures has reached 90% Vdd,
    the highest crossing the fits read ({!Spice_sim.Transient.config}'s
    [stop_at]). The load classes of one (buffer, slew, length), and the
    class pairs of one (buffer, slew, left length, right length), are
    the lanes of one run ({!Spice_sim.Transient.simulate_lanes}): 2,556
    simulations ([Accurate]) in 489 runs. See {!load_or_characterize}
    for the cached entry point.

    [pool] (default {!Parallel.default_pool}) distributes the
    independent per-(buffer, slew) sample tasks across domains: 21
    single-wire and 12 branch tasks ([Accurate]). The fits then run on
    the calling domain per (buffer, class) and per (buffer, class pair),
    each over its samples in slew-major order, so the library —
    including fit-report ordering and save-file layout — is identical at
    any pool size.

    {b Domain safety}: a characterized [t] is immutable after this
    returns and may be read concurrently from every domain. *)

val save : t -> string -> unit [@@cts.raises "Sys_error"]
(** Write the fitted library to a text file: whole to a temporary file
    in the same directory, then renamed over the path, so a reader never
    sees a partly written file. On failure the temporary file is removed
    and the path is left as it was. *)

val load : string -> t [@@cts.raises "Failure,Invalid_argument,Sys_error"]
(** Read a library back; raises [Failure] (or [Invalid_argument] from
    a malformed surface) on bad input, [Sys_error] on an unreadable
    path. The channel is closed on every path.

    A file that parses is still rejected with a [Failure] naming the
    problem when the library would be unusable: no buffers, a duplicate
    buffer name, load classes that are not positive and strictly
    ascending (each more than 1e-6 above the last), or a (buffer, load
    class) pair without a single-wire fit. Every lookup on an accepted
    library is therefore total. *)

val load_or_characterize :
  ?profile:profile -> ?pool:Parallel.t -> cache:string -> Circuit.Tech.t ->
  Circuit.Buffer_lib.t list -> t
  [@@cts.raises "Failure,Invalid_argument,Not_found"]
(** Load from [cache] when present and loadable, otherwise characterize
    (on [pool], see {!characterize}) and save to [cache]. A failed save
    (a missing directory, a path that is a directory) is ignored: the
    characterized library is returned either way. *)

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
(** The head of {!buffers}. Every library has one: {!characterize} and
    {!load} reject a library without buffers. *)

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
(** A copy of the load-class capacitances, ascending. *)

val fit_report :
  t -> (string * (float[@cts.unit "ps"]) * (float[@cts.unit "ps"])) list
(** Per-fit [(label, rms residual, max |residual|)] against the
    characterization samples, in seconds. *)
