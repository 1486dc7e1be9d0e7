(* Tests for the characterized delay/slew library. *)

module T = Spice_sim.Transient
module Rc = Circuit.Rc_tree
module W = Waveform
module B = Circuit.Buffer_lib

let tech = T_env.tech
let check_f eps = Alcotest.(check (float eps))

let wave_gen_hits_target_slew () =
  List.iter
    (fun target ->
      let w = Delaylib.Wave_gen.buffer_output_wave tech T_env.b10 ~slew:target in
      match W.slew_10_90 w ~vdd:tech.Circuit.Tech.vdd with
      | Some s -> check_f 3e-12 (Printf.sprintf "%g" target) target s
      | None -> Alcotest.fail "no slew")
    [ 40e-12; 80e-12; 150e-12 ]

(* A request outside the achievable range saturates at its nearer end:
   the shortest wire's slew below 1 ps, the longest one's above 1 ns. *)
let wave_gen_range_sane () =
  let slew_for target =
    let w = Delaylib.Wave_gen.buffer_output_wave tech T_env.b10 ~slew:target in
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
  let input = Delaylib.Wave_gen.buffer_output_wave tech T_env.b10 ~slew:95e-12 in
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

let save_load_roundtrip () =
  let dl = T_env.get_dl () in
  let path = Filename.temp_file "dl_roundtrip" ".txt" in
  Delaylib.save dl path;
  let dl2 = Delaylib.load path in
  Sys.remove path;
  (* Field-order regression: record fields must land where they were
     saved (buf_delay <-> wire_slew were once swapped by evaluation-order
     dependence). *)
  let e = Delaylib.eval_single dl ~drive:T_env.b20 ~load_cap:5e-15 ~input_slew:90e-12 ~length:500. in
  let e2 = Delaylib.eval_single dl2 ~drive:T_env.b20 ~load_cap:5e-15 ~input_slew:90e-12 ~length:500. in
  check_f 1e-16 "buf_delay" e.Delaylib.buf_delay e2.Delaylib.buf_delay;
  check_f 1e-16 "wire_delay" e.Delaylib.wire_delay e2.Delaylib.wire_delay;
  check_f 1e-16 "wire_slew" e.Delaylib.wire_slew e2.Delaylib.wire_slew;
  let b = Delaylib.eval_branch dl ~drive:T_env.b30 ~load_cap_left:0.75e-15 ~load_cap_right:15e-15 ~input_slew:70e-12 ~len_left:250. ~len_right:650. in
  let b2 = Delaylib.eval_branch dl2 ~drive:T_env.b30 ~load_cap_left:0.75e-15 ~load_cap_right:15e-15 ~input_slew:70e-12 ~len_left:250. ~len_right:650. in
  check_f 1e-16 "branch delay_left" b.Delaylib.delay_left b2.Delaylib.delay_left;
  check_f 1e-16 "branch slew_right" b.Delaylib.slew_right b2.Delaylib.slew_right;
  (* Tech and buffers survive too. *)
  Alcotest.(check int) "buffers" 3 (List.length (Delaylib.buffers dl2));
  check_f 1e-12 "tech vdd" tech.Circuit.Tech.vdd (Delaylib.tech dl2).Circuit.Tech.vdd

let load_rejects_garbage () =
  let path = Filename.temp_file "dl_garbage" ".txt" in
  let oc = open_out path in
  output_string oc "not a delaylib\n";
  close_out oc;
  (try
     ignore (Delaylib.load path);
     Sys.remove path;
     Alcotest.fail "expected failure"
   with Failure _ -> Sys.remove path)

(* Save the test library, pass its lines through [edit], and load the
   result: the load must fail with a [Failure] whose message mentions
   [expect]. *)
let load_edited ~edit ~expect () =
  let dl = T_env.get_dl () in
  let path = Filename.temp_file "dl_edited" ".txt" in
  Delaylib.save dl path;
  let ic = open_in path in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  close_in ic;
  let oc = open_out path in
  output_string oc (String.concat "\n" (edit lines));
  close_out oc;
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  match Delaylib.load path with
  | _ ->
      Sys.remove path;
      Alcotest.fail "expected a Failure"
  | exception Failure msg ->
      Sys.remove path;
      if not (contains msg expect) then
        Alcotest.failf "failure %S does not mention %S" msg expect

let starts_with prefix l =
  String.length l >= String.length prefix
  && String.sub l 0 (String.length prefix) = prefix

(* Drop the first "single" block: its header and three surface lines. *)
let drop_first_single lines =
  let rec go = function
    | l :: _ :: _ :: _ :: rest when starts_with "single " l -> rest
    | l :: rest -> l :: go rest
    | [] -> []
  in
  go lines

let load_rejects_missing_single =
  load_edited ~edit:drop_first_single ~expect:"no single fit"

let load_rejects_no_buffers =
  load_edited
    ~edit:(List.filter_map (fun l ->
         if starts_with "buffers " l then Some "buffers 0"
         else if starts_with "buffer " l then None
         else Some l))
    ~expect:"no buffers"

let load_rejects_unsorted_classes =
  load_edited
    ~edit:(List.map (fun l ->
         if starts_with "classes " l then "classes 5e-15 0.75e-15 15e-15 35e-15"
         else l))
    ~expect:"not strictly ascending"

(* [load_or_characterize] with a cache it cannot use: the library it
   returns must be the characterized one (compared with the shared test
   library, whose fits survive save/load exactly), and no temporary
   file may be left beside the cache. *)
let same_library a b =
  let bits x = Int64.bits_of_float x in
  let single dl =
    Delaylib.eval_single dl ~drive:T_env.b20 ~load_cap:5e-15 ~input_slew:90e-12
      ~length:500.
  and branch dl =
    Delaylib.eval_branch dl ~drive:T_env.b30 ~load_cap_left:0.75e-15
      ~load_cap_right:15e-15 ~input_slew:70e-12 ~len_left:250. ~len_right:650.
  in
  let s = single a and s' = single b and r = branch a and r' = branch b in
  Alcotest.(check (list int64)) "same fits"
    (List.map bits
       [ s.Delaylib.buf_delay; s.wire_delay; s.wire_slew; r.Delaylib.delay_left;
         r.delay_right; r.slew_left; r.slew_right ])
    (List.map bits
       [ s'.Delaylib.buf_delay; s'.wire_delay; s'.wire_slew;
         r'.Delaylib.delay_left; r'.delay_right; r'.slew_left; r'.slew_right ])

let in_temp_dir f =
  let dir = Filename.temp_dir "dl_cache" "" in
  let cache = Filename.concat dir "lib.txt" in
  let entries () = List.sort compare (Array.to_list (Sys.readdir dir)) in
  f cache;
  Alcotest.(check (list string)) "only the cache is left" [ "lib.txt" ] (entries ());
  if Sys.is_directory cache then Sys.rmdir cache else Sys.remove cache;
  Sys.rmdir dir

let cache_is_a_directory () =
  in_temp_dir (fun cache ->
      Sys.mkdir cache 0o755;
      same_library (T_env.get_dl ())
        (Delaylib.load_or_characterize ~profile:Delaylib.Fast ~cache tech T_env.lib))

(* A reader that opened the old file keeps reading it whole: the save
   replaces the file instead of rewriting it in place. *)
let corrupt_cache_replaced () =
  in_temp_dir (fun cache ->
      let corrupt = "delaylib v1\ntech 1.0" in
      Out_channel.with_open_text cache (fun oc -> output_string oc corrupt);
      In_channel.with_open_text cache (fun reader ->
          let dl =
            Delaylib.load_or_characterize ~profile:Delaylib.Fast ~cache tech
              T_env.lib
          in
          Alcotest.(check bool) "a reader of the old file reads it whole" true
            (String.equal corrupt (In_channel.input_all reader));
          same_library (T_env.get_dl ()) dl;
          same_library dl (Delaylib.load cache)))

let cache_file_per_profile () =
  Alcotest.(check bool) "the default caches differ" true
    (Delaylib.cache_file Delaylib.Fast
    <> Delaylib.cache_file Delaylib.Accurate);
  Alcotest.(check string) "a given path is kept" "lib.txt"
    (Delaylib.cache_file ~path:"lib.txt" Delaylib.Fast)

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
   single-slew waves. *)
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
          let single = Delaylib.Wave_gen.buffer_output_wave tech binput ~slew in
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
   probe's (or the nearer endpoint's) wave returned. *)
module Full_probe_wave_gen = struct
  let l_min = 1.
  let l_max = 4000.

  let slew_for_length tech binput len =
    let load = Rc.leaf ~tag:"gate" 1e-15 in
    let r, chain = Rc.wire tech ~length:len load in
    let tree = Rc.node [ (r, chain) ] in
    let input = W.smooth_curve ~vdd:tech.Circuit.Tech.vdd ~slew:60e-12 () in
    let res = T.simulate tech (T.Driven_buffer (binput, input)) tree in
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
   for bit: both entry points, slews inside the range and at or past
   either end, two input buffers. *)
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
            (bits (Delaylib.Wave_gen.buffer_output_wave tech binput ~slew)))
        slews listed)
    [ B.smallest T_env.lib; T_env.b20 ]

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
    Alcotest.test_case "save/load roundtrip" `Quick save_load_roundtrip;
    Alcotest.test_case "load rejects garbage" `Quick load_rejects_garbage;
    Alcotest.test_case "load rejects a missing single fit" `Quick
      load_rejects_missing_single;
    Alcotest.test_case "load rejects zero buffers" `Quick load_rejects_no_buffers;
    Alcotest.test_case "load rejects unsorted classes" `Quick
      load_rejects_unsorted_classes;
    Alcotest.test_case "cache path that is a directory" `Quick cache_is_a_directory;
    Alcotest.test_case "corrupt cache replaced whole" `Quick corrupt_cache_replaced;
    Alcotest.test_case "load class stability" `Quick load_class_cap_stable;
    Alcotest.test_case "one default cache per profile" `Quick
      cache_file_per_profile;
    Alcotest.test_case "intrinsic delay vs slew" `Quick
      intrinsic_delay_increases_with_slew;
  ]
