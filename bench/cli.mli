(** Argument parsing for the benchmark harness.

    Kept as a tiny library (no side effects, no [exit]) so the error
    paths — unknown [--profile] values, malformed [--scale] numbers,
    unknown experiment names — are unit-testable. *)

type opts = {
  scale : float;  (** Benchmark scale factor (default 0.25). *)
  profile : Delaylib.profile;  (** Characterization profile. *)
  kernels : bool;  (** Run the Bechamel kernel timings. *)
  parallel_bench : bool;  (** Run only the parallel-speedup benchmark. *)
  alloc_gate : bool;
      (** Run only the hot-path kernels and fail (exit 1) if any
          allocates beyond the per-run budget. *)
  trace : string option;
      (** Write a Chrome trace-event JSON of the run to this file. *)
  stats : bool;  (** Print observability counters after the run. *)
  help : bool;  (** [--help] was given. *)
  selected : string list;  (** Experiment ids, in command-line order. *)
}

val default : opts

val parse : known:string list -> string list -> (opts, string) result
(** [parse ~known args] parses the argument list (excluding argv.(0)).
    [known] lists the valid experiment ids. Returns [Error msg] — a
    one-line description naming the offending argument — on an unknown
    option or experiment, a missing option value, a non-float or
    non-positive [--scale], or an unknown [--profile] value. *)

val usage : known:string list -> string
(** Usage text listing options and the known experiment ids. *)
