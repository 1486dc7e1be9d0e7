(** Technology parameters.

    A 45 nm-class technology in the spirit of the PTM models the paper
    uses, with the paper's 10x-scaled wire parasitics ("mimics bigger
    chips that incur stringent slew constraints", Sec. 5.1).

    Units throughout the project: volts, seconds, ohms, farads, amperes,
    and micrometres for lengths. *)

type t = {
  vdd : float;  (** Supply voltage (V). *)
  vt : float;  (** Transistor threshold (V), same magnitude for N and P. *)
  alpha : float;  (** Alpha-power-law velocity-saturation exponent. *)
  vdsat_frac : float;
      (** Saturation drain voltage as a fraction of (Vgs - Vt). *)
  k_per_x : float;
      (** Saturation transconductance of a 1X device (A / V^alpha). *)
  gate_cap_per_x : float;  (** Gate capacitance of a 1X device (F). *)
  drain_cap_per_x : float;  (** Drain diffusion capacitance of 1X (F). *)
  unit_res : float;  (** Wire resistance (ohm / um). *)
  unit_cap : float;  (** Wire capacitance (F / um). *)
}

val default : t
(** The 45 nm-class settings used by all experiments. Its wire
    parasitics are the 10x-scaled GSRC-bookshelf values, as in the
    paper's Sec. 5.1. *)

val wire_res : t -> float -> float
(** [wire_res t len] is the total resistance of [len] um of wire. *)

val wire_cap : t -> float -> float
(** [wire_cap t len] is the total capacitance of [len] um of wire. *)
