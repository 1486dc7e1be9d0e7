type t = {
  vdd : float;
  vt : float;
  alpha : float;
  vdsat_frac : float;
  k_per_x : float;
  gate_cap_per_x : float;
  drain_cap_per_x : float;
  unit_res : float;
  unit_cap : float;
}

(* k_per_x is calibrated so a 10X buffer has an effective drive resistance
   of roughly 400 ohm: Rd ~ Vdd / (2 * k * (Vdd - Vt)^alpha). *)
let default =
  {
    vdd = 1.0;
    vt = 0.3;
    alpha = 1.3;
    vdsat_frac = 0.8;
    k_per_x = 2.0e-4;
    gate_cap_per_x = 0.15e-15;
    drain_cap_per_x = 0.10e-15;
    unit_res = 0.3;
    unit_cap = 0.2e-15;
  }

let wire_res t len = t.unit_res *. len
let wire_cap t len = t.unit_cap *. len
