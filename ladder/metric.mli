(** Named measurements and their per-workload summaries. *)

type t = { name : string; unit : string; value : float }

val make : string -> string -> float -> t
(** [make name unit value]. *)

type summary = {
  s_name : string;
  s_unit : string;
  median : float;
  max : float;
  n : int;  (** Samples the median and max are taken over. *)
}

val median : float list -> float
(** Raises [Invalid_argument] on an empty list. *)

type rep = (t list * string, string) result
(** One rep: its metrics and the MD5 of its netlist, or why it failed. *)

type outcome = {
  attempted : int;
  failures : string list;  (** One reason per failed rep, in rep order. *)
  digest : string option;  (** The first successful rep's netlist MD5. *)
  summaries : summary list;  (** Over the successful reps only. *)
}

val outcome : rep list -> outcome
(** Summarize a workload's reps. A rep whose netlist MD5 differs from
    the first successful rep's counts as failed: the flow is
    deterministic, so a changed tree within one run is a bug. *)

val fail_frac : outcome -> float
(** Failed reps over attempted reps. *)
