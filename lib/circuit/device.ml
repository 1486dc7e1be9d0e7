type transistor = { vov : float; idsat : float; vdsat : float }
type bias = { vdd : float; n : transistor; p : transistor }

(* Saturation point at gate drive [vgs]. [vov <= 0] is exactly
   [vgs <= vt] (a float difference is zero only for equal operands), so
   off devices skip the power. *)
let transistor (tech : Tech.t) ~size ~vgs =
  let vov = vgs -. tech.vt in
  if vov <= 0. then { vov; idsat = 0.; vdsat = 0. }
  else
    {
      vov;
      idsat = tech.k_per_x *. size *. (vov ** tech.alpha);
      vdsat = tech.vdsat_frac *. vov;
    }

let drain_current d ~vds =
  if d.vov <= 0. || vds <= 0. then 0.
  else if vds >= d.vdsat then d.idsat
  else
    let x = vds /. d.vdsat in
    d.idsat *. x *. (2. -. x)

let nmos_current tech ~size ~vgs ~vds =
  drain_current (transistor tech ~size ~vgs) ~vds

let bias tech ~size ~vin =
  let vdd = tech.Tech.vdd in
  (* Pull-down NMOS: gate at vin, source at ground. Pull-up PMOS:
     complementary — an NMOS in the mirrored frame (gate drive
     vdd - vin). *)
  {
    vdd;
    n = transistor tech ~size ~vgs:vin;
    p = transistor tech ~size ~vgs:(vdd -. vin);
  }

let bias_current b ~vout =
  (* NMOS drain at vout; PMOS drain-source drop vdd - vout. *)
  let i_n = drain_current b.n ~vds:vout in
  let i_p = drain_current b.p ~vds:(b.vdd -. vout) in
  i_p -. i_n

let bias_conductance b ~vout =
  let dv = 1e-4 in
  let i_hi = bias_current b ~vout:(vout +. dv) in
  let i_lo = bias_current b ~vout:(vout -. dv) in
  Float.max 0. (-.(i_hi -. i_lo) /. (2. *. dv))

let inverter_current tech ~size ~vin ~vout =
  bias_current (bias tech ~size ~vin) ~vout

let inverter_conductance tech ~size ~vin ~vout =
  bias_conductance (bias tech ~size ~vin) ~vout
