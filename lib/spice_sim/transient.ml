module W = Waveform
module Tech = Circuit.Tech
module Buffer_lib = Circuit.Buffer_lib
module Device = Circuit.Device

type driver = Vsource of W.t | Driven_buffer of Circuit.Buffer_lib.t * W.t

type config = {
  dt : float;
  t_margin : float;
  t_max : float;
  newton_iters : int;
  record_stride : int;
}

let default_config =
  {
    dt = 0.5e-12;
    t_margin = 1.5e-9;
    t_max = 40e-9;
    newton_iters = 3;
    record_stride = 1;
  }

type result = {
  vdd : float;
  recorded : (string * W.t) list;
  root : W.t;
  settled_flag : bool;
}

(* Growable float array for sample recording. *)
module Vec = struct
  type t = { mutable a : float array; mutable len : int }

  let create () = { a = Array.make 1024 0.; len = 0 }

  let push v x =
    if v.len = Array.length v.a then
      v.a <- Array.append v.a (Array.make v.len 0.);
    v.a.(v.len) <- x;
    v.len <- v.len + 1

  let to_array v = Array.sub v.a 0 v.len
end

(* Scalar backward-Euler Newton step for the buffer's internal node. *)
let advance_internal tech ~size ~cap ~dt ~iters ~vin ~v_old =
  let c_dt = cap /. dt in
  let bias = Device.bias tech ~size ~vin in
  let v = ref v_old in
  for _ = 1 to iters do
    let i = Device.bias_current bias ~vout:!v in
    let g = Device.bias_conductance bias ~vout:!v in
    let f = (c_dt *. (!v -. v_old)) -. i in
    let fp = c_dt +. g in
    v := !v -. (f /. fp)
  done;
  (* Voltages stay physical. *)
  Float.max (-0.1 *. tech.Tech.vdd) (Float.min (1.1 *. tech.Tech.vdd) !v)

let g_source = 1e4 (* 0.1 mohm source impedance for Dirichlet forcing *)

let simulate ?(config = default_config) (tech : Tech.t) driver tree =
  let flat = Rc_flat.of_tree tree in
  let n = flat.Rc_flat.n in
  let cap = Array.copy flat.Rc_flat.cap in
  (* The buffer's output diffusion capacitance loads the tree root. *)
  (match driver with
  | Driven_buffer (buf, _) -> cap.(0) <- cap.(0) +. Buffer_lib.output_cap tech buf
  | Vsource _ -> ());
  let input = match driver with Vsource w | Driven_buffer (_, w) -> w in
  let dt = config.dt in
  let c_dt = Array.map (fun c -> c /. dt) cap in
  (* Static part of the diagonal: C/dt + sum of incident edge
     conductances. *)
  let diag_base = Array.copy c_dt in
  for i = 1 to n - 1 do
    diag_base.(i) <- diag_base.(i) +. flat.Rc_flat.g_edge.(i);
    let p = flat.Rc_flat.parent.(i) in
    diag_base.(p) <- diag_base.(p) +. flat.Rc_flat.g_edge.(i)
  done;
  let fac = Rc_flat.factor flat ~diag:diag_base in
  let v = Array.make n 0. in
  let rhs = Array.make n 0. in
  let vdd = tech.Tech.vdd in
  (* Recording setup: every tagged node plus the root. *)
  let rec_targets = ("__root", 0) :: flat.Rc_flat.tag_index in
  let times = Vec.create () in
  let samples = List.map (fun (tag, idx) -> (tag, idx, Vec.create ())) rec_targets in
  let record t =
    Vec.push times t;
    List.iter (fun (_, idx, vec) -> Vec.push vec v.(idx)) samples
  in
  let t0 = W.t_start input in
  let t_input_end = W.t_end input in
  let internal_cap, stage2_size =
    match driver with
    | Driven_buffer (buf, _) ->
        (Buffer_lib.internal_cap tech buf, buf.Buffer_lib.size)
    | Vsource _ -> (0., 0.)
  in
  let v_a = ref vdd in
  record t0;
  let t = ref t0 in
  let step_count = ref 0 in
  let settled = ref false in
  let all_settled () =
    let ok = ref (W.value_at input !t >= 0.99 *. vdd) in
    let i = ref 0 in
    while !ok && !i < n do
      if v.(!i) < 0.99 *. vdd then ok := false;
      incr i
    done;
    !ok
  in
  while (not !settled) && !t < config.t_max do
    let t_new = !t +. dt in
    let vin = W.value_at input t_new in
    (* Advance the buffer's internal (stage-1 output) node first; it only
       sees the known input and its own capacitance. *)
    let stage2_vin =
      match driver with
      | Driven_buffer (buf, _) ->
          v_a :=
            advance_internal tech ~size:buf.Buffer_lib.stage1_size
              ~cap:internal_cap ~dt ~iters:config.newton_iters ~vin
              ~v_old:!v_a;
          !v_a
      | Vsource _ -> 0.
    in
    (* The tree rows are factored once; per step the rhs is swept once,
       Newton runs on the root unknown alone (only the root carries a
       nonlinear device), and one back-substitution finishes the step. *)
    for i = 0 to n - 1 do
      rhs.(i) <- c_dt.(i) *. v.(i)
    done;
    Rc_flat.forward fac ~rhs;
    let vr =
      match driver with
      | Driven_buffer _ ->
          let bias = Device.bias tech ~size:stage2_size ~vin:stage2_vin in
          let vr = ref v.(0) in
          for _ = 1 to config.newton_iters do
            let i_dev = Device.bias_current bias ~vout:!vr in
            let g_dev = Device.bias_conductance bias ~vout:!vr in
            vr :=
              Rc_flat.root_solve fac ~diag0:(diag_base.(0) +. g_dev)
                ~rhs0:(rhs.(0) +. i_dev +. (g_dev *. !vr))
                ~rhs
          done;
          !vr
      | Vsource _ ->
          Rc_flat.root_solve fac ~diag0:(diag_base.(0) +. g_source)
            ~rhs0:(rhs.(0) +. (g_source *. vin))
            ~rhs
    in
    Rc_flat.back fac ~rhs ~root:vr ~into:v;
    t := t_new;
    incr step_count;
    if !step_count mod config.record_stride = 0 then record t_new;
    if
      !step_count mod 64 = 0
      && t_new > t_input_end
      && t_new > t0 +. (config.t_margin /. 10.)
    then settled := all_settled ()
  done;
  let ts = Vec.to_array times in
  let recorded =
    List.map (fun (tag, _, vec) -> (tag, W.make ts (Vec.to_array vec))) samples
  in
  {
    vdd;
    recorded;
    root = List.assoc "__root" recorded;
    settled_flag = !settled;
  }

let waveform r tag = List.assoc tag r.recorded
let root_waveform r = r.root
let settled r = r.settled_flag

let stage_delay r ~input ~tag =
  let w = waveform r tag in
  W.delay_50 input w ~vdd:r.vdd

let node_slew r ~tag =
  let w = waveform r tag in
  W.slew_10_90 w ~vdd:r.vdd
