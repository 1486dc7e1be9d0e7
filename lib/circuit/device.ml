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

(* Below [vds = 0] the drain and source swap: the device conducts from
   its source terminal, with the gate drive taken against the drain,
   [vgs - vds]. Its own bias, so a power per call; only a node driven
   past a rail reaches it (DESIGN.md 5y). *)
let[@inline] reverse_current (tech : Tech.t) ~size ~vgs ~vds =
  let vov = vgs -. vds -. tech.vt in
  -.drain_current tech ~vov ~idsat:(idsat tech ~size ~vov) ~vds:(-.vds)

let nmos_current (tech : Tech.t) ~size ~vgs ~vds =
  if vds < 0. then reverse_current tech ~size ~vgs ~vds
  else
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

(* Between the rails both devices take the cached bias; below 0 V the
   NMOS and above Vdd the PMOS conduct in reverse, pulling the node
   back. *)
let[@inline] current_at (tech : Tech.t) d vout =
  let p_vds = tech.vdd -. vout in
  let i_p =
    if p_vds < 0. then
      reverse_current tech ~size:d.size ~vgs:(tech.vdd -. d.vin) ~vds:p_vds
    else drain_current tech ~vov:d.p_vov ~idsat:d.p_idsat ~vds:p_vds
  in
  let i_n =
    if vout < 0. then reverse_current tech ~size:d.size ~vgs:d.vin ~vds:vout
    else drain_current tech ~vov:d.n_vov ~idsat:d.n_idsat ~vds:vout
  in
  i_p -. i_n

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
