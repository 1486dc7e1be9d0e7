(** Source-level lint for this repository: the determinism /
    domain-safety rules L1–L5, and {!run}, the one entry point that
    runs all four lint families — L1–L5 here, {!Units} (U1–U4),
    {!Race} (C1–C5) and {!Exc} (E1–E5) — over one {!Front.parse} of
    the sources.

    Nothing here runs the type-checker: the analysis is a deliberately
    conservative syntactic approximation, tuned so that the repository
    itself lints clean while seeded violations are caught.

    Rules:

    - {b L1} — no mutation primitive ([:=], [Hashtbl.*] writes,
      [Array.set] on shared values, mutable-field assignment,
      [Buffer.add*], [Queue]/[Stack]/[Atomic] writes) may be reachable
      from a function submitted to a [Parallel] pool unless an
      enclosing definition carries
      [[@cts.guarded "mutex[:NAME]" | "atomic" | "domain-local"]]
      ("domain-local" covers [Domain.DLS]-sharded accumulators such as
      the {!Obs} counter store, merged deterministically by the
      coordinator).
      Mutation of values freshly allocated inside the task ([let r =
      ref ...], [let h = Hashtbl.create ...], record/array literals)
      is task-local and always allowed. The writes and the call graph
      are the race analyzer's summaries ({!Race.result}); L1's roots
      are the lambda (or named function) arguments of [Parallel.map] /
      [Parallel.iter] call sites.
    - {b L2} — no [Random.*] or [Rng] use outside [lib/util/rng.ml]
      and [lib/bmark/synthetic.ml].
    - {b L3} — no wall-clock ([Unix.gettimeofday], [Unix.time],
      [Sys.time]) under [lib/] outside [lib/report] and the
      observability clock [lib/obs/obs_clock.ml] ([Obs_clock.now] is
      the one blessed gateway; timers must go through it).
    - {b L4} — float equality [=] / [<>] on syntactically-float
      operands in [lib/cts_core], [lib/dme], [lib/numerics] and
      [lib/qor], unless annotated [[@cts.float_eq_ok]].
    - {b L5} — every [.mli] of a [lib/] module whose implementation
      holds or manipulates mutable state must contain a
      [Domain-safety:] doc line.

    A [[@cts.guarded]] attribute whose payload is missing or is not
    one of the four known mechanisms (a ["mutex:NAME"] payload naming
    the specific lock is accepted; {!Race} verifies the name) is
    itself reported (rule L1): blanket suppressions are not
    accepted.

    Domain-safety: pure analysis over in-memory sources; every table is
    local to one {!run}. *)

type result = {
  diagnostics : Front.diagnostic list;
      (** every family's diagnostics and the syntax diagnostics, sorted
          by {!Front.sort_diagnostics} *)
  raises : ((string * string) * string list) list;
      (** the may-raise table of {!Exc.analyze} *)
}

val run : (string * string) list -> result
(** [run [(path, contents); ...]] lints in-memory sources. Paths are
    significant: rule scoping keys off normalized relative paths such
    as ["lib/cts_core/cts.ml"] ({!Front.normalize_path}); the result
    does not depend on the order of the sources. *)

val run_paths : string list -> result
(** {!run} over files read from disk (directory traversal is
    {!Front.scan}'s job); raises [Sys_error] when a file cannot be
    read. *)
