(* Tests for the characterized delay/slew library. *)

module T = Spice_sim.Transient
module Rc = Circuit.Rc_tree
module W = Waveform
module B = Circuit.Buffer_lib

let tech = T_env.tech
let check_f eps = Alcotest.(check (float eps))

(* [binput]'s input wave at one slew. *)
let wave_at binput slew =
  List.hd (Delaylib.Wave_gen.buffer_output_waves tech binput ~slews:[ slew ])

let wave_gen_hits_target_slew () =
  List.iter
    (fun target ->
      let w = wave_at T_env.b10 target in
      match W.slew_10_90 w ~vdd:tech.Circuit.Tech.vdd with
      | Some s -> check_f 3e-12 (Printf.sprintf "%g" target) target s
      | None -> Alcotest.fail "no slew")
    [ 40e-12; 80e-12; 150e-12 ]

(* A request outside the achievable range saturates at its nearer end:
   the shortest wire's slew below 1 ps, the longest one's above 1 ns. *)
let wave_gen_range_sane () =
  let slew_for target =
    let w = wave_at T_env.b10 target in
    Option.get (W.slew_10_90 w ~vdd:tech.Circuit.Tech.vdd)
  in
  let lo = slew_for 1e-12 and hi = slew_for 1e-9 in
  Alcotest.(check bool) "lo < hi" true (lo < hi);
  Alcotest.(check bool) "lo under 40ps" true (lo < 40e-12);
  Alcotest.(check bool) "hi over 250ps" true (hi > 250e-12)

let fit_quality () =
  let dl = T_env.get_dl () in
  List.iter
    (fun (label, rms, worst) ->
      if rms > 2e-12 then
        Alcotest.failf "fit %s rms %.2fps too large" label (rms *. 1e12);
      if worst > 6e-12 then
        Alcotest.failf "fit %s worst %.2fps too large" label (worst *. 1e12))
    (Delaylib.fit_report dl)

let library_matches_simulator_offgrid () =
  (* The acceptance test of Chapter 3: library predictions at points not
     in the characterization sweep agree with direct simulation. *)
  let dl = T_env.get_dl () in
  let input = wave_at T_env.b10 95e-12 in
  let length = 640. and load_cap = 0.75e-15 in
  let load = Rc.leaf ~tag:"load" load_cap in
  let r, chain = Rc.wire tech ~length load in
  let tree = Rc.node ~tag:"out" [ (r, chain) ] in
  let res = T.simulate tech (T.Driven_buffer (T_env.b20, input)) tree in
  let vdd = tech.Circuit.Tech.vdd in
  let sim_buf = Option.get (W.delay_50 input (T.root_waveform res) ~vdd) in
  let sim_total = Option.get (T.stage_delay res ~input ~tag:"load") in
  let sim_slew = Option.get (T.node_slew res ~tag:"load") in
  let e =
    Delaylib.eval_single dl ~drive:T_env.b20 ~load_cap ~input_slew:95e-12
      ~length
  in
  check_f 2.5e-12 "buffer delay" sim_buf e.Delaylib.buf_delay;
  check_f 2.5e-12 "wire delay" (sim_total -. sim_buf) e.Delaylib.wire_delay;
  check_f 4e-12 "wire slew" sim_slew e.Delaylib.wire_slew

let eval_single_monotone_in_length () =
  let dl = T_env.get_dl () in
  let slews l =
    (Delaylib.eval_single dl ~drive:T_env.b20 ~load_cap:5e-15
       ~input_slew:80e-12 ~length:l)
      .Delaylib.wire_slew
  in
  Alcotest.(check bool) "slew monotone" true
    (slews 200. < slews 600. && slews 600. < slews 1200.)

let eval_single_clamps_domain () =
  let dl = T_env.get_dl () in
  let lo, hi = Delaylib.len_domain dl in
  let at l =
    Delaylib.eval_single dl ~drive:T_env.b20 ~load_cap:5e-15 ~input_slew:80e-12
      ~length:l
  in
  (* Out-of-domain queries pin to the domain edges, never extrapolate. *)
  check_f 1e-15 "below domain" (at lo).Delaylib.wire_delay
    (at (lo -. 100.)).Delaylib.wire_delay;
  check_f 1e-15 "above domain" (at hi).Delaylib.wire_delay
    (at (hi +. 5000.)).Delaylib.wire_delay

let eval_branch_symmetry () =
  (* Swapping branch roles must mirror the answer. *)
  let dl = T_env.get_dl () in
  let b =
    Delaylib.eval_branch dl ~drive:T_env.b20 ~load_cap_left:0.75e-15
      ~load_cap_right:15e-15 ~input_slew:80e-12 ~len_left:300. ~len_right:700.
  in
  let b' =
    Delaylib.eval_branch dl ~drive:T_env.b20 ~load_cap_left:15e-15
      ~load_cap_right:0.75e-15 ~input_slew:80e-12 ~len_left:700. ~len_right:300.
  in
  check_f 1e-15 "delay mirror" b.Delaylib.delay_left b'.Delaylib.delay_right;
  check_f 1e-15 "slew mirror" b.Delaylib.slew_left b'.Delaylib.slew_right

let eval_branch_longer_is_slower () =
  let dl = T_env.get_dl () in
  let b =
    Delaylib.eval_branch dl ~drive:T_env.b20 ~load_cap_left:5e-15
      ~load_cap_right:5e-15 ~input_slew:80e-12 ~len_left:200. ~len_right:900.
  in
  Alcotest.(check bool) "right branch slower" true
    (b.Delaylib.delay_right > b.Delaylib.delay_left)

let max_length_for_slew_properties () =
  let dl = T_env.get_dl () in
  let len b =
    Delaylib.max_length_for_slew dl ~drive:b ~load_cap:0.75e-15
      ~input_slew:80e-12 ~slew_limit:80e-12
  in
  let l10 = len T_env.b10 and l20 = len T_env.b20 and l30 = len T_env.b30 in
  Alcotest.(check bool) "stronger drives longer" true (l10 < l20 && l20 < l30);
  (* At the returned length the predicted slew is exactly the limit. *)
  let s =
    (Delaylib.eval_single dl ~drive:T_env.b20 ~load_cap:0.75e-15
       ~input_slew:80e-12 ~length:l20)
      .Delaylib.wire_slew
  in
  check_f 1e-12 "slew at max length = limit" 80e-12 s

(* An empty or duplicated buffer list is rejected at entry, before any
   simulation runs. *)
let bad_buffer_lists () =
  Alcotest.check_raises "no buffers"
    (Invalid_argument "Delaylib.characterize: no buffers") (fun () ->
      ignore (Delaylib.characterize ~profile:Delaylib.Fast tech []));
  Alcotest.check_raises "a duplicate"
    (Invalid_argument "Delaylib.characterize: duplicate buffer BUF20X")
    (fun () ->
      ignore
        (Delaylib.characterize ~profile:Delaylib.Fast tech
           (T_env.lib @ [ B.make ~name:"BUF20X" ~size:25. ])))

(* [class_index]'s exactness argument needs positive classes, each more
   than 1e-6 relative above the last. *)
let classes_keep_ratio () =
  let classes = Delaylib.classes (T_env.get_dl ()) in
  Array.iteri
    (fun k c ->
      Alcotest.(check bool) (Printf.sprintf "class %d positive" k) true
        (Float.is_finite c && c > 0.);
      if k > 0 then
        Alcotest.(check bool) (Printf.sprintf "class %d above class %d" k (k - 1))
          true
          (c > classes.(k - 1) *. (1. +. 1e-6)))
    classes

let load_class_cap_stable () =
  let dl = T_env.get_dl () in
  Alcotest.(check int) "nearby caps share a class"
    (Delaylib.class_index dl 5.2e-15) (Delaylib.class_index dl 5.6e-15)

let intrinsic_delay_increases_with_slew () =
  let dl = T_env.get_dl () in
  let d s =
    (Delaylib.eval_single dl ~drive:T_env.b10 ~load_cap:0.75e-15 ~input_slew:s
       ~length:400.)
      .Delaylib.buf_delay
  in
  Alcotest.(check bool) "monotone in input slew" true
    (d 30e-12 < d 80e-12 && d 80e-12 < d 150e-12)

(* The shared probe table changes no bit: for both profiles' slew sets
   (including the fast ones the table shares), the list equals the
   waves of one-slew calls. *)
let wave_gen_list_matches_single () =
  let bits w =
    Array.map Int64.bits_of_float
      (Array.append (Waveform.times w) (Waveform.values w))
  in
  let binput = Circuit.Buffer_lib.smallest Circuit.Buffer_lib.default_library in
  List.iter
    (fun slews ->
      let listed = Delaylib.Wave_gen.buffer_output_waves tech binput ~slews in
      List.iter2
        (fun slew w ->
          let single = wave_at binput slew in
          Alcotest.(check (array int64))
            (Printf.sprintf "slew %g ps" (slew *. 1e12))
            (bits single) (bits w))
        slews listed)
    [
      List.map (fun p -> p *. 1e-12) [ 20.; 30.; 40.; 70.; 100.; 120.; 140.; 180.; 190.; 250. ];
      List.map (fun p -> p *. 1e-12) [ 30.; 40.; 80.; 120.; 150. ];
    ]

(* [Wave_gen] as it was before its probes stopped at 90%: every
   bisection probe and both endpoints simulated to settle, and the last
   probe's (or the nearer endpoint's) wave returned, at
   characterization's 1 ps step. *)
module Full_probe_wave_gen = struct
  let l_min = 1.
  let l_max = 4000.
  let config = { T.default_config with T.dt = 1e-12 }

  let slew_for_length tech binput len =
    let load = Rc.leaf ~tag:"gate" 1e-15 in
    let r, chain = Rc.wire tech ~length:len load in
    let tree = Rc.node [ (r, chain) ] in
    let input = W.smooth_curve ~vdd:tech.Circuit.Tech.vdd ~slew:60e-12 () in
    let res = T.simulate ~config tech (T.Driven_buffer (binput, input)) tree in
    let wave = T.waveform res "gate" in
    (Option.get (W.slew_10_90 wave ~vdd:tech.Circuit.Tech.vdd), wave)

  let normalize tech wave =
    match W.crossing wave (0.01 *. tech.Circuit.Tech.vdd) with
    | Some t -> W.shift wave (-.t)
    | None -> wave

  let buffer_output_wave tech binput ~slew =
    let s_min, w_min = slew_for_length tech binput l_min in
    let s_max, w_max = slew_for_length tech binput l_max in
    if slew <= s_min then normalize tech w_min
    else if slew >= s_max then normalize tech w_max
    else
      let rec bisect iter lo hi =
        let mid = (lo +. hi) /. 2. in
        let s, w = slew_for_length tech binput mid in
        let lo, hi = if s < slew then (mid, hi) else (lo, mid) in
        if iter < 24 && Float.abs (s -. slew) > 2e-12 then bisect (iter + 1) lo hi else w
      in
      normalize tech (bisect 1 l_min l_max)
end

(* Probes that stop at 90% pick the same lengths, and the chosen
   length's full run is the wave the all-full bisection returned, bit
   for bit: in a list and in one-slew calls, slews inside the range and
   at or past either end, two input buffers. *)
let wave_gen_matches_full_probes () =
  let bits w =
    Array.map Int64.bits_of_float (Array.append (W.times w) (W.values w))
  in
  let slews =
    List.map (fun p -> p *. 1e-12) [ 0.5; 20.; 45.; 80.; 120.; 150.; 190.; 250.; 2000. ]
  in
  List.iter
    (fun binput ->
      let listed = Delaylib.Wave_gen.buffer_output_waves tech binput ~slews in
      List.iter2
        (fun slew w ->
          let name = Printf.sprintf "%s at %g ps" binput.B.name (slew *. 1e12) in
          let reference = Full_probe_wave_gen.buffer_output_wave tech binput ~slew in
          Alcotest.(check (array int64)) (name ^ ", list") (bits reference) (bits w);
          Alcotest.(check (array int64)) (name ^ ", single") (bits reference)
            (bits (wave_at binput slew)))
        slews listed)
    [ B.smallest T_env.lib; T_env.b20 ]

(* An equal-class branch stage at (L1, L2) and at (L2, L1) are mirror
   images: characterization takes the second's samples from the first
   with its sides swapped. Simulated here directly, the two agree to
   rounding (the trees factor in another order), at every equal class
   pair the library fits and under every buffer. *)
let mirrored_branch_runs_agree () =
  let input = wave_at (B.smallest T_env.lib) 70e-12 in
  let vdd = tech.Circuit.Tech.vdd in
  let measure drive cap len_left len_right =
    let wire tag len = Rc.wire tech ~length:len (Rc.leaf ~tag cap) in
    let tree = Rc.node [ wire "left" len_left; wire "right" len_right ] in
    let res =
      T.simulate ~config:Delaylib.Wave_gen.char_config tech (T.Driven_buffer (drive, input)) tree
    in
    let out = T.root_waveform res in
    let delay tag = Option.get (W.delay_50 out (T.waveform res tag) ~vdd) in
    let slew tag = Option.get (T.node_slew res ~tag) in
    (delay "left", delay "right", slew "left", slew "right")
  in
  let close name a b =
    if Float.abs (a -. b) > 1e-12 *. Float.abs a then
      Alcotest.failf "%s: %h vs %h (%.3g relative)" name a b (Float.abs (a -. b) /. Float.abs a)
  in
  List.iter
    (fun drive ->
      List.iter
        (fun cap ->
          let dl, dr, sl, sr = measure drive cap 250. 650. in
          let dl', dr', sl', sr' = measure drive cap 650. 250. in
          let name q = Printf.sprintf "%s %g fF %s" drive.B.name (cap *. 1e15) q in
          close (name "delay left") dl dr';
          close (name "delay right") dr dl';
          close (name "slew left") sl sr';
          close (name "slew right") sr sl')
        [ 0.75e-15; 15e-15; 35e-15 ])
    T_env.lib

(* Every profile's sweep is well posed, and its held-out set lies off
   it and inside its domain. *)
let sweeps_well_posed () =
  let rec ascending = function
    | a :: (b :: _ as tl) -> a < b && ascending tl
    | [ _ ] | [] -> true
  in
  List.iter
    (fun profile ->
      let name = Delaylib.profile_name profile in
      let sw = Delaylib.sweep profile in
      let single, branch = Delaylib.held_out_set profile in
      let dims =
        [
          ("single slews", sw.Delaylib.single_degree, sw.single.slews, single.Delaylib.slews);
          ("single lengths", sw.single_degree, sw.single.lengths, single.lengths);
          ("branch slews", sw.branch_degree, sw.branch.slews, branch.slews);
          ("branch lengths", sw.branch_degree, sw.branch.lengths, branch.lengths);
        ]
      in
      List.iter
        (fun (dim, degree, values, held) ->
          let label what = Printf.sprintf "%s %s: %s" name dim what in
          Alcotest.(check bool) (label "ascending") true (ascending values);
          Alcotest.(check bool) (label "degree + 1 values") true
            (List.length values >= degree + 1);
          let lo = List.fold_left Float.min Float.infinity values
          and hi = List.fold_left Float.max Float.neg_infinity values in
          List.iter
            (fun x ->
              Alcotest.(check bool) (label (Printf.sprintf "%g off the sweep" x)) false
                (List.mem x values);
              Alcotest.(check bool) (label (Printf.sprintf "%g inside the domain" x)) true
                (x > lo && x < hi))
            held)
        dims)
    [ Delaylib.Fast; Delaylib.Accurate ]

(* The characterization ran its sweep and nothing more: its lane runs and
   lanes are the sweep's, with each mirrored branch run simulating the
   three unequal class pairs only. *)
let characterize_runs_its_sweep () =
  let dl = T_env.get_dl () in
  let sw = Delaylib.sweep Delaylib.Fast in
  let len = List.length in
  let n_buf = len (Delaylib.buffers dl) in
  let singles = len sw.Delaylib.single.slews * len sw.single.lengths in
  let n = len sw.branch.lengths in
  let branch_runs = len sw.branch.slews * n * n in
  let branch_lanes = len sw.branch.slews * ((n * (n + 1) / 2 * 6) + (n * (n - 1) / 2 * 3)) in
  let cost = Delaylib.sweep_cost dl in
  Alcotest.(check int) "lane runs" (n_buf * (singles + branch_runs)) cost.Delaylib.runs;
  Alcotest.(check int) "lanes"
    (n_buf * ((singles * Delaylib.n_classes dl) + branch_lanes))
    cost.Delaylib.lanes

(* The fast profile's held-out error, pinned at its measured figures
   (rounded up to 0.01 ps): its sweep is coarse, so only the accurate
   profile meets the 0.5 ps budget (t_spice_sim's held-out gate). *)
let fast_held_out_error () =
  let report = Delaylib.held_out (T_env.get_dl ()) in
  let bound = function
    | Delaylib.Buffer_delay -> 1.21
    | Wire_delay -> 0.61
    | Wire_slew -> 0.54
    | Branch_delay -> 0.49
    | Branch_slew -> 1.15
  in
  List.iter
    (fun (a : Delaylib.accuracy) ->
      let name = Delaylib.quantity_name a.quantity in
      Alcotest.(check bool) (name ^ " samples") true (a.samples > 0);
      if a.worst > bound a.quantity *. 1e-12 then
        Alcotest.failf "%s: held-out worst %.3f ps over %.2f ps" name (a.worst *. 1e12)
          (bound a.quantity))
    report.Delaylib.accuracy

let suite =
  [
    Alcotest.test_case "wave gen hits target slew" `Quick wave_gen_hits_target_slew;
    Alcotest.test_case "wave gen = full-probe bisection" `Quick wave_gen_matches_full_probes;
    Alcotest.test_case "wave gen range" `Quick wave_gen_range_sane;
    Alcotest.test_case "wave gen list = single waves" `Quick
      wave_gen_list_matches_single;
    Alcotest.test_case "fit quality" `Quick fit_quality;
    Alcotest.test_case "library vs simulator off-grid" `Quick
      library_matches_simulator_offgrid;
    Alcotest.test_case "slew monotone in length" `Quick
      eval_single_monotone_in_length;
    Alcotest.test_case "domain clamping" `Quick eval_single_clamps_domain;
    Alcotest.test_case "branch symmetry" `Quick eval_branch_symmetry;
    Alcotest.test_case "branch ordering" `Quick eval_branch_longer_is_slower;
    Alcotest.test_case "max length for slew" `Quick max_length_for_slew_properties;
    Alcotest.test_case "characterize rejects bad buffer lists" `Quick
      bad_buffer_lists;
    Alcotest.test_case "load classes keep the class ratio" `Quick
      classes_keep_ratio;
    Alcotest.test_case "load class stability" `Quick load_class_cap_stable;
    Alcotest.test_case "intrinsic delay vs slew" `Quick
      intrinsic_delay_increases_with_slew;
    Alcotest.test_case "mirrored branch runs agree" `Quick mirrored_branch_runs_agree;
    Alcotest.test_case "sweeps well posed, held-out sets off them" `Quick sweeps_well_posed;
    Alcotest.test_case "characterize runs its sweep only" `Quick characterize_runs_its_sweep;
    Alcotest.test_case "held-out error, fast profile" `Quick fast_held_out_error;
  ]
