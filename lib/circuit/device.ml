type inverter = {
  size : float;
  mutable vin : float;
  mutable vout : float;
  mutable current : float;
  mutable conductance : float;
  mutable bias_vin : float;
  mutable n_vov : float; mutable n_idsat : float;
  mutable p_vov : float; mutable p_idsat : float;
}

(* The alpha-power model, once; float helpers are inlined, so unboxed.
   [vov <= 0] is exactly [vgs <= vt] (a float difference is zero only
   for equal operands): off devices skip the power. *)
let[@inline] idsat (tech : Tech.t) ~size ~vov =
  if vov <= 0. then 0. else tech.k_per_x *. size *. (vov ** tech.alpha)

let[@inline] drain_current (tech : Tech.t) ~vov ~idsat ~vds =
  if vov <= 0. || vds <= 0. then 0.
  else
    let vdsat = tech.vdsat_frac *. vov in
    if vds >= vdsat then idsat
    else
      let x = vds /. vdsat in
      idsat *. x *. (2. -. x)

let nmos_current (tech : Tech.t) ~size ~vgs ~vds =
  let vov = vgs -. tech.vt in
  drain_current tech ~vov ~idsat:(idsat tech ~size ~vov) ~vds

(* Pull-down NMOS: gate at vin, source at ground. Pull-up PMOS:
   complementary — an NMOS in the mirrored frame (gate drive vdd - vin,
   drain-source drop vdd - vout). *)
let rebias (tech : Tech.t) d =
  d.bias_vin <- d.vin;
  d.n_vov <- d.vin -. tech.vt;
  d.n_idsat <- idsat tech ~size:d.size ~vov:d.n_vov;
  d.p_vov <- tech.vdd -. d.vin -. tech.vt;
  d.p_idsat <- idsat tech ~size:d.size ~vov:d.p_vov

let[@inline] current_at (tech : Tech.t) d vout =
  drain_current tech ~vov:d.p_vov ~idsat:d.p_idsat ~vds:(tech.vdd -. vout)
  -. drain_current tech ~vov:d.n_vov ~idsat:d.n_idsat ~vds:vout

let inverter tech ~size ~vin =
  let d =
    { size; vin; vout = 0.; current = 0.; conductance = 0.; bias_vin = vin;
      n_vov = 0.; n_idsat = 0.; p_vov = 0.; p_idsat = 0. }
  in
  rebias tech d;
  d

let eval tech d =
  (* The bias is a function of [vin] alone: equal bits, equal bias. *)
  if
    not
      (Int64.equal (Int64.bits_of_float d.vin) (Int64.bits_of_float d.bias_vin))
  then rebias tech d;
  let vout = d.vout and dv = 1e-4 in
  d.current <- current_at tech d vout;
  let i_hi = current_at tech d (vout +. dv) in
  let i_lo = current_at tech d (vout -. dv) in
  d.conductance <- Float.max 0. (-.(i_hi -. i_lo) /. (2. *. dv))

let evaluated tech ~size ~vin ~vout =
  let d = inverter tech ~size ~vin in
  d.vout <- vout;
  eval tech d;
  d

let inverter_current tech ~size ~vin ~vout =
  (evaluated tech ~size ~vin ~vout).current

let inverter_conductance tech ~size ~vin ~vout =
  (evaluated tech ~size ~vin ~vout).conductance
