module W = Waveform
module T = Spice_sim.Transient

let l_min = 1.
let l_max = 4000.

let slew_for_length tech binput len =
  let load = Circuit.Rc_tree.leaf ~tag:"gate" 1e-15 in
  let r, chain = Circuit.Rc_tree.wire tech ~length:len load in
  let tree = Circuit.Rc_tree.node [ (r, chain) ] in
  let input = W.smooth_curve ~vdd:tech.Circuit.Tech.vdd ~slew:60e-12 () in
  let res = T.simulate tech (T.Driven_buffer (binput, input)) tree in
  let wave = T.waveform res "gate" in
  match W.slew_10_90 wave ~vdd:tech.Circuit.Tech.vdd with
  | Some s -> (s, wave)
  | None -> invalid_arg "Wave_gen: characterization stage did not rise"

(* The shortest and longest input stages: (slew, wave) each. *)
let endpoints tech binput =
  (slew_for_length tech binput l_min, slew_for_length tech binput l_max)

let normalize tech wave =
  (* Shift so the 1%-Vdd crossing sits at t = 0. *)
  let vdd = tech.Circuit.Tech.vdd in
  match W.crossing wave (0.01 *. vdd) with
  | Some t -> W.shift wave (-.t)
  | None -> wave

let wave_for ?(tol = 2e-12) tech ~probe ((s_min, w_min), (s_max, w_max)) slew =
  if slew <= s_min then normalize tech w_min
  else if slew >= s_max then normalize tech w_max
  else
    (* Bisection on wire length: slew grows monotonically with length.
       [iter] counts the stages simulated so far, this one included. *)
    let rec bisect iter lo hi =
      let mid = (lo +. hi) /. 2. in
      let s, w = probe mid in
      let lo, hi = if s < slew then (mid, hi) else (lo, mid) in
      if iter < 24 && Float.abs (s -. slew) > tol then bisect (iter + 1) lo hi
      else w
    in
    normalize tech (bisect 1 l_min l_max)

let buffer_output_wave ?tol tech binput ~slew =
  wave_for ?tol tech ~probe:(slew_for_length tech binput) (endpoints tech binput)
    slew

let buffer_output_waves ?tol tech binput ~slews =
  (* Every bisection starts from the same bracket, so the slews share
     their first probes: each length is simulated once, keyed by its
     bits (a probe is a function of the length alone). *)
  let probed = Hashtbl.create 64 in
  let probe len =
    let key = Int64.bits_of_float len in
    match Hashtbl.find_opt probed key with
    | Some r -> r
    | None ->
        let r = slew_for_length tech binput len in
        Hashtbl.add probed key r;
        r
  in
  List.map (wave_for ?tol tech ~probe (probe l_min, probe l_max)) slews
