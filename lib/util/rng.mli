(** Deterministic pseudo-random number generation.

    A SplitMix64 generator with an explicit, mutable state. All randomized
    parts of the project (benchmark generation, property-test inputs,
    jittered sweeps) draw from this module so that every run is exactly
    reproducible from a seed.

    Domain-safety: generator state is mutable and unsynchronized; each
    domain or task must own its own [t] (split off with {!split} or
    seeded independently). Nothing in the synthesis path itself draws
    randomness — lint rule L2 confines Rng use to benchmark generation
    and tests. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from a 63-bit seed. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float -> float [@@cts.raises "Invalid_argument"]
(** [float t bound] is uniform in [\[0, bound)]. Raises
    [Invalid_argument] unless [bound] is positive. *)

val float_range : t -> float -> float -> float
  [@@cts.raises "Invalid_argument"]
(** [float_range t lo hi] is uniform in [\[lo, hi)]. Raises
    [Invalid_argument] unless [lo < hi]. *)

val int : t -> int -> int [@@cts.raises "Invalid_argument"]
(** [int t bound] is uniform in [\[0, bound)]. Raises
    [Invalid_argument] unless [bound] is positive. *)

val bool : t -> bool
(** Fair coin. *)

val gaussian : t -> float
(** Standard normal deviate (Box-Muller). *)
