(** Buffered clock trees.

    The output of synthesis: a rooted tree whose leaves are clock sinks,
    whose internal nodes are merge points, and which — unlike classical
    DME trees — may carry buffers {e anywhere}, including in the middle
    of routing paths (the "aggressive" insertion of the paper's title).

    Edge lengths record the {e routed} wirelength, which may exceed the
    Manhattan distance between the endpoints when the router snaked wire
    to balance delays.

    Domain-safety: trees are immutable; the only shared state is the
    process-wide node-id counter behind the constructors, which is
    atomic. Raw ids are therefore unique but schedule-dependent —
    {!renumber} (applied by synthesis before returning any tree)
    restores canonical preorder ids independent of which domain built
    each node. *)

type kind =
  | Sink of { name : string; cap : float }
  | Merge  (** Unbuffered merge/steiner point. *)
  | Buf of Circuit.Buffer_lib.t  (** Buffer inserted at this location. *)

type t = { id : int; kind : kind; pos : Geometry.Point.t; children : edge list }
and edge = { length : float; route : Geometry.Point.t list; child : t }

val source_slew : float
(** The clock source's 10%-90% slew at the root buffer's input, 60 ps:
    the edge that timing analysis, the invariant check, signoff
    simulation and the SPICE deck all present to a finished tree. *)

val sink : name:string -> pos:Geometry.Point.t -> cap:float -> t
val merge : pos:Geometry.Point.t -> edge list -> t
val buffer : pos:Geometry.Point.t -> Circuit.Buffer_lib.t -> edge list -> t

val edge : ?route:Geometry.Point.t list -> length:float -> t -> edge
(** [route] lists intermediate bend points (excluding the endpoints). *)

val connect :
  parent_pos:Geometry.Point.t -> ?extra:(float[@cts.unit "um"]) -> t -> edge
(** Straight (Manhattan-length) edge from a parent at [parent_pos] to the
    given subtree root, plus [extra] snaked length (default 0). *)

val sinks : t -> t list
(** All sink nodes, left-to-right. *)

val n_nodes : t -> int
val n_buffers : t -> int

val buffer_histogram : t -> (string * int) list
(** Buffer count per library cell name. *)

val total_wirelength : t -> float
(** Sum of routed edge lengths (um). *)

val total_sink_cap : t -> float

type cap_breakdown = {
  wire_cap : float;  (** Total routed wire capacitance (F). *)
  buffer_cap : float;  (** Gate + parasitic capacitance of all buffers. *)
  sink_cap : float;
}

val capacitance_breakdown : Circuit.Tech.t -> t -> cap_breakdown

val dynamic_power :
  Circuit.Tech.t -> freq:(float[@cts.unit "dimensionless"]) -> t ->
  (float[@cts.unit "dimensionless"])
(** Clock-network dynamic power [C_total * Vdd^2 * f] (W): every node of
    the clock net swings rail-to-rail once per cycle. Hz and W lie
    outside the units checker's lattice; [dimensionless] marks them as
    deliberately unchecked scalars. *)

(** A broken structural rule. The rules are written once, here:
    {!validate} renders them and [Ctree_check.structure] reports them. *)
type problem =
  | Duplicate_id of { id : int }
  | Non_canonical_id of { expected : int; got : int }
      (** Preorder position [expected] (1-based) holds node [got]. *)
  | Sink_not_leaf of { id : int; name : string }
  | Overfull_node of { id : int; children : int }  (** Arity > 2. *)
  | Childless_internal of { id : int }
  | Non_finite_edge of { parent : int; child : int; length : float }
      (** A NaN or infinite routed length. *)
  | Short_edge of {
      parent : int;
      child : int;
      length : float;
      manhattan : float [@cts.unit "um"];
    }
      (** Recorded routed length undercuts the endpoint Manhattan
          distance: negative snaking slack. A non-finite endpoint
          coordinate breaks it too. *)

val problems : canonical_ids:bool -> t -> problem list
(** Every structural problem, in preorder: ids unique and, with
    [canonical_ids], exactly the 1-based preorder numbering {!renumber}
    establishes; sinks are leaves; internal nodes have one or two
    children; every routed length is finite and at least the Manhattan
    distance between its endpoints less 1e-6 um. Each comparison is
    written so that a NaN fails it. *)

val problem_to_string : problem -> string

val validate : t -> string list
(** {!problems} without the canonical-id rule, rendered (empty =
    valid): the check for trees whose ids are not yet canonical. *)

val iter : (t -> unit) -> t -> unit
(** Preorder traversal. *)

val renumber : t -> t
(** Rebuild the tree with ids reassigned 1..n in preorder. This is the
    canonical form: two structurally equal trees renumber to equal trees
    regardless of which domains allocated their nodes, which is what
    keeps {!Ctree_netlist} output bit-identical between sequential and
    parallel synthesis. *)

val pp_summary : Format.formatter -> t -> unit
