(** Interprocedural exception-flow & resource-safety analyzer.

    The fourth analysis pillar (after L1–L5, U1–U4, C1–C5): where the
    race analyzer verifies [[@cts.guarded]] claims about concurrency
    effects, this pass verifies [[@cts.raises]] contracts about
    exception effects. Three passes over the {!Front} definitions (no
    typer), on the summary table, fixpoint and reachability walk the
    race analyzer also uses:

    + {b Summaries} — every top-level definition (and every let-bound
      local function, summarized separately so a closure's effects
      only count once it is referenced) is walked once into a set of
      raise sites and call edges. Each site snapshots the handler
      frames around it ([try] / [match-exception] cases subtract the
      exceptions they enumerate; a catch-all absorbs everything; a
      catch-all that re-raises its variable — an {e observer} —
      subtracts nothing) and the resource brackets open at the site
      ([Mutex.lock]..[unlock], [open_in*]..[close_in*];
      [Mutex.protect] / [Fun.protect ~finally] are the blessed
      exception-safe forms). Explicit [raise] / [failwith] /
      [invalid_arg] and partial stdlib calls ([Option.get],
      [List.hd], [Hashtbl.find], [open_in], [input_line],
      [int_of_string], ...) seed the latent-exception alphabet.
    + {b Fixpoint} — a monotone fixpoint propagates may-raise sets
      over the call graph, filtered at each edge by the handler
      frames active there, keeping a witness chain
      ("M.n -> raise Foo at file:l:c") per exception. Two sets are
      maintained: the full inferred set (contract verification) and
      the {e undeclared} set, where a definition's own
      [[@cts.raises]] contract subtracts what it documents.
    + {b Diagnostics} — rules E1–E5.

    Contracts: [[@@cts.raises "Exn1,Exn2"]] (or [""] for total) on a
    [val] in an mli — or [[@cts.raises]] on a [let] in an ml for
    internal definitions — is {e verified} against the inferred
    effect set, never trusted: same philosophy as C1.

    Rules:

    - {b E1} — an {e undeclared} exception can escape a
      [Parallel.map] / [Parallel.iter] / [Domain.spawn] task closure.
      A raising task poisons the pool (the resident server's fatal
      case). Declared exceptions are exempt: [Parallel.map] re-raises
      them deterministically on the coordinator, so a documented
      effect is the submitter's responsibility.
    - {b E2} — an mli [[@cts.raises]] contract is violated (the
      implementation may raise something undeclared — with witness)
      or stale (declares an exception the implementation can no
      longer raise).
    - {b E3} — an acquire/release pair is not exception-safe: a
      raising path (direct raise or may-raise call) between
      [Mutex.lock] and [unlock], or between [open_in*] and
      [close_in*], without [Mutex.protect] / [Fun.protect] or an
      observer handler releasing the resource.
    - {b E4} — a catch-all [with _ ->] / [with e ->] that does not
      re-raise swallows a non-enumerated exception set without
      [[@cts.catch_all_ok "reason"]].
    - {b E5} — a partial call ([Option.get], [List.hd], [List.tl])
      on a value of unproven shape, reachable from a task root,
      without a dominating shape check ([match] with a []/None case,
      [if xs <> []], length guards) or [[@cts.partial_ok]].

    Deliberate trust boundaries (DESIGN.md section 5k): array/string
    indexing and [assert] are outside the latent alphabet; channel
    reads are charged [End_of_file] but not [Sys_error]; re-raised
    handler variables count for resource safety (E3) but not for
    effect sets.

    Diagnostics are deterministic: sorted by (file, line, col, rule)
    and independent of the order sources are supplied in.

    Domain-safety: all analysis state is call-local to {!analyze};
    safe to run from any domain. *)

type result = {
  diagnostics : Front.diagnostic list;  (** E1–E5, unsorted *)
  raises : ((string * string) * string list) list;
      (** Inferred may-raise table for top-level definitions:
          [(Module, name)] -> sorted exception names; only non-empty
          sets are listed. The race analyzer's C4 reads it, so the two
          families use one effect table. *)
}

val analyze : Front.t -> result
(** E1–E5 over the parsed sources: [.ml] entries are summarized,
    [.mli] entries contribute [[@cts.raises]] contracts. *)
