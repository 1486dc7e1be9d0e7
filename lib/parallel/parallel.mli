(** Fixed-size domain work pool for the embarrassingly parallel stages of
    the flow (delay-library characterization, level-wise merge-routing).

    A pool owns [size - 1] worker domains plus the calling domain, which
    always participates in its own jobs — so a pool of size 1 spawns no
    domains and degrades to plain sequential execution, and nested jobs
    (a task submitting a sub-job to the same pool) cannot deadlock: the
    publisher drains its own job even when every worker is busy.

    {b Determinism contract}: {!map} applies [f] to the elements in an
    unspecified interleaving across domains, but the result array is
    always index-ordered. Callers that need bit-identical results across
    pool sizes must make [f] pure up to commutative-and-deterministic
    memoization (see {!Run.span}): a task returns what it produced, and
    the caller folds the results in index order after {!map} returns —
    this is how {!Cts.synthesize} keeps parallel and sequential
    synthesis bit-identical.

    {b Observability}: {!map} brackets every task with
    [Obs.task_enter]/[Obs.task_leave] and absorbs the per-task deltas
    (counters, gauges, histograms and spans) into the caller in
    task-index order, so [Obs] counter totals are identical at every
    pool size.

    {b Exception contract}: if one or more tasks raise, every task of the
    job still runs to completion (or raises), the lowest-index task's
    exception is re-raised in the caller with its backtrace — the one
    [Array.map] raises on a 1-domain pool — and the pool remains
    usable.

    Domain-safety: the pool is the synchronization — the job queue is
    guarded by the pool mutex, work-stealing indices and completion
    counts are atomics, and the lazily-created default pool sits behind
    its own mutex. *)

type t
(** A pool handle. Pools are cheap (a few idle domains); create one per
    concern or share {!default_pool}. A pool must be used from one client
    thread at a time (nested submission from inside tasks is fine). *)

val env_var : string
(** ["CTS_DOMAINS"]. *)

val parse_size : string -> int option
(** Parse a pool size from an environment-variable value: a positive
    decimal integer, clamped to [1, 64]. [None] on anything else. *)

val create : ?spawn:((unit -> unit) -> unit Domain.t) -> ?size:int -> unit -> t
(** Create a pool with [size - 1] worker domains (clamped to at least
    1). The default size is the {!set_default_size} override if any,
    else [CTS_DOMAINS] parsed with {!parse_size} (re-read on every
    call), else [Domain.recommended_domain_count ()] capped at 8.
    Degrades gracefully on resource exhaustion — the [Failure] that
    [Domain.spawn] raises when the runtime cannot allocate another
    domain: the pool runs with the workers it got (possibly none, i.e.
    fully sequential) and the shortfall is recorded in
    [Obs.Pool_spawn_shortfall]. Any other exception (e.g.
    [Out_of_memory], [Stack_overflow]) is a genuine error and re-raises
    after the workers already spawned are shut down.

    [spawn] (default [Domain.spawn]) exists for tests that exercise the
    degradation path without exhausting real domains; it must either
    behave like [Domain.spawn] or raise. *)

val size : t -> int
(** Effective parallelism: 1 (the caller) + live worker domains. *)

val shutdown : t -> unit
(** Stop and join the workers. Idempotent. Jobs must not be in flight.
    Submitting to a shut-down pool raises [Invalid_argument] (see
    {!map}). *)

val with_pool : ?size:int -> (t -> 'a) -> 'a
(** [create], run, then [shutdown] (also on exceptions). *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
  [@@cts.raises "Invalid_argument"]
(** Parallel [Array.map]. With a pool of size 1 (or arrays of length
    at most 1) this {e is} [Array.map f arr] on the calling domain.

    Raises [Invalid_argument] when the pool has been {!shutdown} —
    typically a stale handle kept across {!set_default_size}, which
    used to either hang waiting for dead workers or silently run
    sequentially. *)

val default_pool : unit -> t
(** The process-wide shared pool, created on first use at the default
    size of {!create} and shut down automatically at exit. *)

val set_default_size : int -> unit
(** Override the default pool size (e.g. from a [--domains N] flag). If
    the shared pool already exists at a different size it is shut down
    and recreated on next use. Call before synthesis starts. *)
