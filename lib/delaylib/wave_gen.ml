module W = Waveform
module T = Spice_sim.Transient

let l_min = 1.
let l_max = 4000.

(* The input stage at wire length [len], recording at the 1 fF gate. *)
let gate_wave ?config tech binput len =
  let load = Circuit.Rc_tree.leaf ~tag:"gate" 1e-15 in
  let r, chain = Circuit.Rc_tree.wire tech ~length:len load in
  let tree = Circuit.Rc_tree.node [ (r, chain) ] in
  let input = W.smooth_curve ~vdd:tech.Circuit.Tech.vdd ~slew:60e-12 () in
  let res = T.simulate ?config tech (T.Driven_buffer (binput, input)) tree in
  T.waveform res "gate"

(* A probe reads only the gate's 10-90% slew, so its run stops at the
   90% sample: a prefix of the full run, bit for bit, which holds both
   crossings (DESIGN.md 5s). *)
let probe_config = { T.default_config with T.stop_at = Some 0.9 }

let slew_for_length tech binput len =
  let wave = gate_wave ~config:probe_config tech binput len in
  match W.slew_10_90 wave ~vdd:tech.Circuit.Tech.vdd with
  | Some s -> s
  | None -> invalid_arg "Wave_gen: characterization stage did not rise"

let normalize tech wave =
  (* Shift so the 1%-Vdd crossing sits at t = 0. *)
  let vdd = tech.Circuit.Tech.vdd in
  match W.crossing wave (0.01 *. vdd) with
  | Some t -> W.shift wave (-.t)
  | None -> wave

(* The wire length the bisection settles on for [slew]: a bracket end
   when [slew] lies outside the endpoints' slews [(s_min, s_max)]. *)
let length_for ?(tol = 2e-12) ~probe (s_min, s_max) slew =
  if slew <= s_min then l_min
  else if slew >= s_max then l_max
  else
    (* Bisection on wire length: slew grows monotonically with length.
       [iter] counts the stages simulated so far, this one included. *)
    let rec bisect iter lo hi =
      let mid = (lo +. hi) /. 2. in
      let s = probe mid in
      let lo, hi = if s < slew then (mid, hi) else (lo, mid) in
      if iter < 24 && Float.abs (s -. slew) > tol then bisect (iter + 1) lo hi
      else mid
    in
    bisect 1 l_min l_max

let buffer_output_wave ?tol tech binput ~slew =
  let probe = slew_for_length tech binput in
  let len = length_for ?tol ~probe (probe l_min, probe l_max) slew in
  normalize tech (gate_wave tech binput len)

(* [f] once per length, keyed by its bits ([f] is a function of the
   length alone). *)
let memo f =
  let seen = Hashtbl.create 64 in
  fun len ->
    let key = Int64.bits_of_float len in
    match Hashtbl.find_opt seen key with
    | Some r -> r
    | None ->
        let r = f len in
        Hashtbl.add seen key r;
        r

let buffer_output_waves ?tol tech binput ~slews =
  (* Every bisection starts from the same bracket, so the slews share
     their first probes; slews that settle on one length (a bracket end,
     say) share its full run. *)
  let probe = memo (slew_for_length tech binput) in
  let wave = memo (gate_wave tech binput) in
  let ends = (probe l_min, probe l_max) in
  List.map (fun slew -> normalize tech (wave (length_for ?tol ~probe ends slew))) slews
