(** Flattened RC trees and their factored tree solver.

    Nodes are numbered in preorder so every parent index precedes its
    children. The simulator's system row [i] reads
    [diag.(i) * v_i - g_edge.(i) * v_parent(i)
     - sum_children g_edge.(c) * v_c = rhs.(i)], and only the root row
    changes between solves (it carries the nonlinear driver stamp). So
    the non-root rows are eliminated once ({!factor}), and each solve is
    one leaf-to-root rhs sweep ({!forward}), a scalar solve at the root
    over the root's children only ({!root_solve}, cheap enough to repeat
    per Newton iteration), and one back-substitution ({!back}). The
    result is bit-identical to a full O(n) elimination of the whole
    matrix: every row sees the same float operations in the same order.

    The solver runs [k >= 1] trees of one shape (node count and parent
    array) as lanes: node [i] of lane [l] sits at [(i * k) + l] of every
    per-node array (node-major, lane-minor). A sweep visits the nodes
    once and, at each, the lanes it is given, so the lanes' dependent
    chains overlap; each lane sees its one-lane operations in the
    one-lane order, bit for bit (DESIGN.md 5t). A sweep of one lane
    carries each value along a chain edge ([parent.(i) = i - 1]) in a
    register rather than through memory; the float operations are the
    same (DESIGN.md 5x).

    Domain-safety: a flattened or factored tree is immutable after
    construction; the solve arrays and {!root} are the caller's. No
    global state. *)

type t = {
  n : int;
  parent : int array;  (** [parent.(0) = -1]. *)
  g_edge : float array;  (** Conductance of the edge to the parent (S). *)
  cap : float array;  (** Grounded capacitance per node (F). *)
  tag_index : (string * int) list;  (** Tagged node -> index. *)
}

val of_tree : Circuit.Rc_tree.t -> t

type factored
(** Lanes of one shape with every non-root row eliminated. *)

val factor : t array -> diag:float array -> factored
  [@@cts.raises "Invalid_argument"]
(** [factor lanes ~diag] eliminates rows [1 .. n-1] of each lane's
    system: [lanes.(l)]'s edge conductances with diagonal
    [diag.((i * k) + l)] ([diag] not modified). The sweeps below index
    unchecked, so the shape they rely on is checked here: at least one
    lane, lane 0's [n >= 1], [parent.(0) = -1] and
    [0 <= parent.(i) < i], every lane's [n] equal to lane 0's and its
    [parent], [g_edge] and [cap] of length [n], and [diag] of length
    [n * k]. Raises [Invalid_argument] naming the field that fails.
    Only lane 0's parent array is read (and copied): that every lane
    has the same one is the caller's check. The root's diagonals are
    ignored and given to each {!root_solve}. *)

val forward : factored -> lanes:int array -> m:int -> rhs:float array -> unit
  [@@cts.raises "Invalid_argument"]
(** Leaf-to-root elimination of the right-hand side of rows [1 .. n-1]
    of the lanes [lanes.(0 .. m-1)], in place. Row 0 is neither read
    nor written, and neither is any other lane. Raises
    [Invalid_argument] naming the argument, before touching [rhs],
    unless [0 <= m <= Array.length lanes], every [lanes.(a)] with
    [a < m] is in [[0, k)] and [rhs] has length [n * k]. *)

type root = { mutable diag0 : float; mutable rhs0 : float; mutable v0 : float }
(** The root row's diagonal and right-hand side (in) and unknown (out),
    in an all-float record so the calls below pass them unboxed. *)

val root_solve : factored -> lane:int -> root -> rhs:float array -> unit
  [@@cts.raises "Invalid_argument"]
(** Sets [v0] to [lane]'s root unknown for [diag0] and [rhs0], given
    [rhs] already passed through {!forward}. Raises [Invalid_argument]
    unless [lane] is in [[0, k)] and [rhs] has length [n * k]. *)

val back :
  factored -> lanes:int array -> m:int -> roots:float array ->
  rhs:float array -> into:float array -> next:float array -> unit
  [@@cts.raises "Invalid_argument"]
(** Back-substitution of the lanes [lanes.(0 .. m-1)] from their root
    values [roots.(l)] (as set by {!root_solve}) over the {!forward}ed
    [rhs]; writes their [n] unknowns each to [into], which may be the
    array the rhs was built from. With a non-empty [next] the same pass
    also sets those lanes' [rhs.(j)] to [next.(j) *. into.(j)]: the
    next solve's right-hand side before {!forward}, so a time step's
    rhs sweep rides along with the previous step's back-substitution.
    With [[||]], [rhs] is only read. Raises [Invalid_argument] naming
    the argument, before writing anything, unless the lanes are as for
    {!forward}, [roots] has length [k] and [rhs], [into] and a
    non-empty [next] have length [n * k]. *)
