(** Tolerant float comparisons for tie-breaking decisions.

    Raw [<] / [=] on computed floats makes control flow depend on
    ulp-level noise: two mathematically equal merge costs computed
    along different expression paths can differ by one rounding step,
    flipping a decision that should be a tie. These helpers give such
    decisions an explicit relative tolerance. *)

val approx_eq : ?rel:float -> ?abs:float -> float -> float -> bool
(** [approx_eq a b] is true when [|a - b| <= max abs (rel * max |a| |b|)];
    [rel] defaults to 1e-9, far above double rounding noise and far
    below any physically meaningful cost difference. *)

val definitely_lt : ?rel:float -> ?abs:float -> float -> float -> bool
(** [definitely_lt a b]: [a < b] by more than the tolerance — false on
    near-ties. Use for "is the alternative strictly better?" decisions
    that must not trigger on rounding noise. [abs] (default 0) sets a
    floor below which differences never count: quantities that are
    mathematically zero but computed along different paths can land at
    different noise magnitudes, where a relative test alone still sees
    a "win". *)
