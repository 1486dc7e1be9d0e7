(** Ladder rungs: one synthetic instance family and one synthesis
    configuration each. *)

type t = {
  name : string;
  bench : string;  (** {!Bmark.Synthetic} descriptor name. *)
  scale : float;  (** Instance scale in (0, 1]; 1 is full size. *)
  insertion : Cts_config.insertion;
  hstructure : Cts_config.hstructure;
}

val all : t list
(** The rungs, in the order a full set runs them. *)

val names : string list
val find : string -> t option

val sinks : t -> seed:int -> Sinks.spec list
(** The rung's instance for [seed]. Equal seeds give equal sink lists;
    every seed gives the same sink count. *)

val config : t -> Delaylib.t -> Cts_config.t
(** {!Cts_config.default} with the rung's insertion engine and
    H-structure mode. *)
