(** SPICE deck export for synthesized clock trees.

    Produces a self-contained deck (source, buffer subcircuits, pi-model
    wires, sink loads, per-sink delay/slew `.measure` cards) so that
    results can be double-checked in an external SPICE. 

    Domain-safety: deck emission uses call-local buffers; trees are read-only here. Safe from any domain. *)

val to_deck : Circuit.Tech.t -> Ctree.t -> string
  [@@cts.raises "Invalid_argument"]
(** Render the tree, its source a {!Ctree.source_slew} ramp and its
    transient run 20 ns long. Wire segments between recorded route
    points are emitted individually. Raises [Invalid_argument] if the
    root is not a buffer. *)

val write_file : Circuit.Tech.t -> Ctree.t -> string -> unit
  [@@cts.raises "Invalid_argument,Sys_error"]
