(** Command line of the ladder. *)

type opts = {
  workloads : Workload.t list;  (** Every rung when none is named. *)
  seed : int;  (** Instance seed (default 1). *)
  reps : int;  (** Timed reps per workload (default 5). *)
  seconds : float option;
      (** Measuring budget: no round of reps starts after this many
          seconds. *)
  trace : bool;  (** Run the traced per-layer run instead of timed reps. *)
  json : string option;  (** Write the full record here. *)
  child : bool;
      (** Run one rep of the single named workload in this process and
          print raw metric lines (how the ladder runs its reps). *)
  help : bool;
}

val usage : string

val parse : string list -> (opts, string) result
(** Parse the arguments after the program name. Errors are one line. *)
