(** RC-tree transfer-function moments and closed-form delay/slew metrics.

    These are the models Sec. 3.1 of the paper shows to be insufficient
    for buffered CTS — implemented here both as comparison baselines
    (experiment MODEL-ACC) and as the fast estimates used inside the
    classical DME baseline.

    The tree is driven by an ideal voltage source at its root, optionally
    behind a source resistance. With [h] the impulse response at a node,
    the circuit moments [m_j] satisfy [H(s) = sum_j m_j s^j]; probability
    moments are [mu_1 = -m_1] (the Elmore delay) and [mu_2 = 2 m_2]. 

    Domain-safety: moment computation uses call-local arrays only. *)

type t
(** Moments of every node of an analyzed tree. *)

val analyze : ?source_res:float -> Circuit.Rc_tree.t -> t
(** Compute first and second moments for all nodes. [source_res]
    (default 0) is a lumped driver resistance between the ideal source
    and the tree root. *)

val elmore : t -> string -> float
(** Elmore delay (first moment, seconds) at a tagged node. Raises
    [Not_found] on unknown tags. *)

val d2m : t -> string -> float
(** The D2M metric of Alpert et al.: [ln 2 * m1^2 / sqrt m2]; exact for a
    single pole, tighter than Elmore elsewhere. *)

val step_slew : t -> string -> float
(** Gaussian-approximation 10%-90% step-response slew:
    [2.563 * sqrt (mu_2 - mu_1^2)]. *)

val ramp_slew : t -> string -> input_slew:float -> float
(** PERI-style extension to ramp inputs: root-sum-square of the step slew
    and the input slew. *)
