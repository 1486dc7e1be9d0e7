(** Small statistics helpers over float arrays and lists. 

    Domain-safety: all helpers are pure over their inputs; scratch is call-local. *)

val mean : float array -> float
(** Arithmetic mean. Requires a non-empty array. *)

val stddev : float array -> float
(** Population standard deviation. Requires a non-empty array. *)

val min_max : float array -> float * float
(** [(min, max)] of a non-empty array. *)

val percentile : float array -> float -> float
(** [percentile a p] for [p] in [\[0,1\]], linear interpolation on the
    sorted copy of [a]. Edge behaviour: [p = 0.] returns the minimum,
    [p = 1.] the maximum, and a singleton array returns its only
    element for every [p]. Requires a non-empty array. The partial
    application [percentile a] sorts once for every point it is then
    applied to — the form the QoR record uses for its min/p50/p95/max
    slew-margin distribution. *)

val rms_error : float array -> float array -> float
(** Root-mean-square difference of two same-length arrays. *)

val max_abs_error : float array -> float array -> float
(** Largest absolute componentwise difference. *)
