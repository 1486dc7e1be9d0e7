(** Small statistics helpers over float arrays and lists. 

    Domain-safety: all helpers are pure over their inputs; scratch is call-local. *)

val mean : float array -> float [@@cts.raises "Invalid_argument"]
(** Arithmetic mean. Raises [Invalid_argument] on an empty array. *)

val stddev : float array -> float [@@cts.raises "Invalid_argument"]
(** Population standard deviation. Raises [Invalid_argument] on an
    empty array. *)

val min_max : float array -> float * float [@@cts.raises "Invalid_argument"]
(** [(min, max)] of a non-empty array; raises [Invalid_argument] on an
    empty one. *)

val percentile : float array -> float -> float
  [@@cts.raises "Invalid_argument"]
(** [percentile a p] for [p] in [\[0,1\]], linear interpolation on the
    sorted copy of [a]. Edge behaviour: [p = 0.] returns the minimum,
    [p = 1.] the maximum, and a singleton array returns its only
    element for every [p]. Raises [Invalid_argument] on an empty array
    or a [p] outside [\[0,1\]] (NaN included). The partial
    application [percentile a] sorts once for every point it is then
    applied to — the form the QoR record uses for its min/p50/p95/max
    slew-margin distribution. *)

val rms_error : float array -> float array -> float
  [@@cts.raises "Invalid_argument"]
(** Root-mean-square difference of two same-length, non-empty arrays;
    raises [Invalid_argument] otherwise. *)

val max_abs_error : float array -> float array -> float
  [@@cts.raises "Invalid_argument"]
(** Largest absolute componentwise difference of two same-length,
    non-empty arrays; raises [Invalid_argument] otherwise. *)
