(** Transistor-level inverter model.

    An alpha-power-law MOSFET model (Sakurai-Newton): saturation current
    [k * (Vgs - Vt)^alpha], with a smooth quadratic linear region below
    [Vdsat = vdsat_frac * (Vgs - Vt)]. An inverter combines a pull-down
    NMOS and pull-up PMOS of the same size; this gives buffer delays that
    depend nonlinearly on input slew and waveform shape — the effects
    Chapter 3 of the paper is built around.

    Domain-safety: an {!inverter} is mutable and belongs to the caller
    that made it; no global state. *)

val nmos_current : Tech.t -> size:float -> vgs:float -> vds:float -> float
(** Drain current of a pull-down NMOS (>= 0); 0 when off or [vds <= 0]. *)

type inverter = {
  size : float;
  mutable vin : float;  (** In: input (gate) voltage. *)
  mutable vout : float;  (** In: output voltage. *)
  mutable current : float;
      (** Out: net current {e into} the output node (positive = PMOS
          charging it); both devices conduct in the crowbar region. *)
  mutable conductance : float;
      (** Out: [- d current / d vout] by central difference, at least 0. *)
  mutable bias_vin : float;
  mutable n_vov : float; mutable n_idsat : float;
  mutable p_vov : float; mutable p_idsat : float;
      (** Written only here: each device's overdrive and saturation
          current at input [bias_vin]. *)
}
(** An inverter evaluated in place. All fields are floats, so the record
    is flat and values pass in and out of {!eval} unboxed. *)

val inverter : Tech.t -> size:float -> vin:float -> inverter
(** A fresh inverter biased at [vin]. *)

val eval : Tech.t -> inverter -> unit
(** Sets [current] and [conductance] at [vin] and [vout], allocating
    nothing. The bias (up to two [**]) is recomputed only when [vin]
    differs bit for bit from [bias_vin]. Pass the [Tech.t] the inverter
    was made with. *)

val inverter_current : Tech.t -> size:float -> vin:float -> vout:float -> float
(** [current] of a fresh inverter evaluated at [vin], [vout]. *)

val inverter_conductance :
  Tech.t -> size:float -> vin:float -> vout:float -> float
(** [conductance] of a fresh inverter evaluated at [vin], [vout]. *)
