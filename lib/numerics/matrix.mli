(** Dense row-major matrices over floats, sized for the small systems that
    appear in polynomial surface fitting (tens of unknowns). 

    Domain-safety: matrices are caller-owned mutable values; do not share one across domains without external synchronization. The operations here never touch global state. *)

type t

val create : int -> int -> t
(** [create rows cols] is a zero matrix. *)

val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val of_arrays : float array array -> t
val copy : t -> t
val identity : int -> t
val transpose : t -> t
val mul : t -> t -> t
val mul_vec : t -> float array -> float array

val solve : t -> float array -> float array
(** [solve a b] solves [a x = b] by Gaussian elimination with partial
    pivoting. Raises [Failure] on a (numerically) singular matrix. *)

val lstsq : t -> float array -> float array
(** [lstsq a b] minimizes [||a x - b||_2] via the normal equations with
    Tikhonov damping 1e-12 on the diagonal; suitable for the
    well-conditioned normalized bases used in this project. *)
