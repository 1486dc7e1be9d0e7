(** Interprocedural concurrency-effect race analyzer.

    Where rule L1 (lint.ml) {e trusts} a [[@cts.guarded]] annotation,
    this pass {e verifies} it; L1 reads the summaries and reachability
    built here. Three passes over the {!Front} definitions (no typer):

    + {b Summaries} — every top-level definition is walked once into a
      per-function effect summary: shared mutations (module-level
      refs / tables / arrays / mutable fields, with the lock set held
      at each write site, threaded flow-sensitively through
      [Mutex.lock] / [Mutex.unlock] / [Mutex.protect]), [Atomic.*]
      operations, lock acquisitions with their resolved identities and
      acquisition order, [Domain.DLS] accesses, blocking calls
      ([Unix.*], [In_channel] / [Out_channel], [Printf] to shared
      channels, ...), and call edges (module-level call-graph
      approximation, aliases resolved).
    + {b Reachability} — the set of functions reachable from closures
      submitted to a [Parallel] pool ([Parallel.map] / [Parallel.iter]
      call sites) or spawned as domains ([Domain.spawn]); plus
      transitive closures of lock acquisition, DLS use and
      may-block over the call graph.
    + {b Diagnostics} — rules C1–C5.

    Rules:

    - {b C1} — a shared mutation reachable from a pool task must be
      protected {e on the actual path}: a lock held at the write, an
      [Atomic.*] primitive, or a [Domain.DLS]-derived target. The
      enclosing [[@cts.guarded]] claim is checked against what the
      summary proves: a ["mutex"] claim with no lock held, an
      ["atomic"] claim on a non-atomic write, or a ["domain-local"]
      claim with no DLS access on the path are each reported, as is an
      unguarded, unprotected write. A claim naming its lock
      (["mutex:span_mutex"]) must name an existing module-level mutex
      {e and} that mutex must be among the locks held at every write
      it covers. A claim on a definition that performs no mutation at
      all is {e stale} and flagged for removal.
    - {b C2} — inconsistent lock sets: the same shared state written
      under disjoint (non-empty) lock sets at two sites.
    - {b C3} — lock-order inversion: lock [B] acquired while [A] is
      held in one function and [A] while [B] is held in another
      (including via calls); also a lock re-acquired while already
      held (OCaml mutexes are not reentrant).
    - {b C4} — a blocking call ([Unix.*], channel I/O, [Printf] to
      shared channels) executed, directly or transitively, while
      holding a lock. [Condition.wait] is exempt (it releases the
      mutex); [[@cts.blocking_ok]] on the call or an enclosing
      definition is the reviewed escape hatch. With the may-raise table
      of {!Exc.analyze}, C4 also flags a call made while holding a lock
      — outside any [try] body, [Mutex.protect] or [Fun.protect] — to a
      callee that may raise: the raise unwinds past the unlock and
      leaks the lock.
    - {b C5} — a [Domain.DLS]-derived value stored into shared
      (module-level) mutable state, escaping its domain.

    Diagnostics are deterministic: sorted by (file, line, col, rule)
    and independent of the order sources are supplied in.

    Domain-safety: all analysis state (summary tables, callgraph,
    worklists) is call-local to {!analyze}; safe to run from any
    domain. *)

type result = {
  diagnostics : Front.diagnostic list;  (** C1–C5, unsorted *)
  pool_writes : (string * Location.t * string) list;
      (** Writes to state that is not task-local, with no
          [[@cts.guarded]] claim in scope, in summaries reachable from
          a [Parallel.map]/[Parallel.iter] task: (file, location,
          primitive). Rule L1 reports these. *)
}

val analyze :
  Front.t -> raises:((string * string) * string list) list -> result
(** C1–C5 over the parsed implementations; [raises] is the may-raise
    table of {!Exc.analyze}. *)
