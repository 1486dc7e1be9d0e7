(** Lumped RC trees.

    Wires are discretized into L-model lumps (series resistance followed
    by a grounded capacitance); trees are rooted at the driver. Nodes may
    carry string tags so measurement points (buffer inputs, sinks) can be
    located after construction. *)

type t = {
  cap : float;  (** Grounded capacitance at this node (F). *)
  tag : string option;
  children : (float * t) list;
      (** [(series resistance to child, child)] edges. *)
}

val leaf : ?tag:string -> float -> t
(** A capacitive endpoint. *)

val node : ?tag:string -> ?cap:float -> (float * t) list -> t
(** Internal node with explicit downstream edges. *)

val wire :
  Tech.t -> ?min_segments:int -> ?max_segment_len:float -> length:float ->
  t -> float * t
(** [wire tech ~length tail] prepends [length] um of wire, discretized
    into at least [min_segments] (default 10) L-model lumps of at most
    [max_segment_len] (default 25 um) each, to the subtree [tail]. The
    result is the edge [(first-lump resistance, chain)] ready to hang from
    a parent node; the last lump's capacitance is absorbed into the root
    of [tail]. A (near-)zero-length wire degenerates to a 1 mohm edge
    straight to [tail]. *)

val total_cap : t -> float
(** Sum of all grounded capacitance in the tree (F). *)

val n_nodes : t -> int
