(** Transistor-level inverter model.

    An alpha-power-law MOSFET model (Sakurai-Newton): saturation current
    [k * (Vgs - Vt)^alpha], with a smooth quadratic linear region below
    [Vdsat = vdsat_frac * (Vgs - Vt)]. An inverter combines a pull-down
    NMOS and pull-up PMOS of the same size; this gives buffer delays that
    depend nonlinearly on input slew and waveform shape — the effects
    Chapter 3 of the paper is built around. *)

val nmos_current : Tech.t -> size:float -> vgs:float -> vds:float -> float
(** Drain current of a pull-down NMOS (>= 0); 0 when off or [vds <= 0]. *)

type bias
(** An inverter at a fixed size and input voltage: both devices'
    saturation currents and [Vdsat], so evaluating it at many output
    voltages (a Newton loop within one timestep) pays for the
    alpha-power terms once. *)

val bias : Tech.t -> size:float -> vin:float -> bias

val bias_current : bias -> vout:float -> float
(** Net current {e into} the inverter output node: positive = pull-up
    (PMOS) charging the node, negative = pull-down (NMOS) discharging.
    Both devices conduct in the crowbar region, as in a real inverter. *)

val bias_conductance : bias -> vout:float -> float
(** [- d I / d Vout], the (non-negative) small-signal output conductance
    used to stamp the device semi-implicitly in the simulator. Computed
    by central finite difference. *)

val inverter_current : Tech.t -> size:float -> vin:float -> vout:float -> float
(** [bias_current (bias tech ~size ~vin) ~vout]. *)

val inverter_conductance :
  Tech.t -> size:float -> vin:float -> vout:float -> float
(** [bias_conductance (bias tech ~size ~vin) ~vout]. *)
