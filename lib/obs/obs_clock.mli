(** The observability layer's only window onto wall-clock time.

    Rule L3 of the determinism lint confines raw wall-clock reads under
    [lib/] to [lib/report] and this single file: any other library
    module that wants a timestamp must go through [Obs_clock.now], which
    keeps time-dependent behaviour auditable in one place. Timestamps feed phase spans and trace export only — they
    never influence a synthesis decision, so results stay bit-identical
    whether or not anything is being timed.

    Domain-safety: stateless; [now] is a pure system call, safe from any
    domain. *)

val now : unit -> float
(** [Unix.gettimeofday ()] — seconds since the epoch, sub-ms precision. *)
