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
(** A tree with every non-root row eliminated. *)

val factor : t -> diag:float array -> factored
(** [factor t ~diag] eliminates rows [1 .. n-1] of the system with
    diagonal [diag] (length [n], not modified). [diag.(0)] is ignored:
    the root's diagonal is given to each {!root_solve}. *)

val forward : factored -> rhs:float array -> unit
(** Leaf-to-root elimination of the right-hand side of rows
    [1 .. n-1], in place. [rhs.(0)] is neither read nor written. *)

type root = { mutable diag0 : float; mutable rhs0 : float; mutable v0 : float }
(** The root row's diagonal and right-hand side (in) and unknown (out),
    in an all-float record so the calls below pass them unboxed. *)

val root_solve : factored -> root -> rhs:float array -> unit
(** Sets [v0] to the root unknown for [diag0] and [rhs0], given [rhs]
    already passed through {!forward}. *)

val back : factored -> root -> rhs:float array -> into:float array -> unit
(** Back-substitution from the root value [v0] (as set by
    {!root_solve}) over the {!forward}ed [rhs]; writes all [n] unknowns
    to [into], which may be the array the rhs was built from. *)
