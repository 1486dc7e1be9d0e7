(* Robustness tests: degenerate inputs, coincident geometry, custom
   libraries, and randomized end-to-end properties. *)

module P = Geometry.Point
module B = Circuit.Buffer_lib
module W = Waveform

let tech = T_env.tech
let check_f eps = Alcotest.(check (float eps))

let coincident_sinks () =
  (* Two flip-flops at the same location (stacked rows) must merge
     without degenerate geometry blowing up. *)
  let dl = T_env.get_dl () in
  let specs =
    [
      { Sinks.name = "co1"; pos = P.make 500. 500.; cap = 10e-15 };
      { Sinks.name = "co2"; pos = P.make 500. 500.; cap = 12e-15 };
      { Sinks.name = "co3"; pos = P.make 900. 500.; cap = 8e-15 };
    ]
  in
  let res = Cts.synthesize dl specs in
  Alcotest.(check (list string)) "valid" [] (Ctree.validate res.Cts.tree);
  let m = Ctree_sim.simulate tech res.Cts.tree in
  Alcotest.(check int) "all sinks" 3 (List.length m.Ctree_sim.sink_delays);
  Alcotest.(check bool) "slew" true (m.Ctree_sim.worst_slew <= 100e-12)

let two_sinks_minimal () =
  let dl = T_env.get_dl () in
  let specs =
    [
      { Sinks.name = "t1"; pos = P.make 0. 0.; cap = 10e-15 };
      { Sinks.name = "t2"; pos = P.make 120. 40.; cap = 10e-15 };
    ]
  in
  let res = Cts.synthesize dl specs in
  let m = Ctree_sim.simulate tech res.Cts.tree in
  Alcotest.(check bool) "tiny skew on near-twins" true
    (m.Ctree_sim.skew < 10e-12)

let extreme_cap_ratio () =
  (* One huge sink vs one tiny: balancing must cope with asymmetric
     loads. *)
  let dl = T_env.get_dl () in
  let specs =
    [
      { Sinks.name = "big"; pos = P.make 0. 0.; cap = 60e-15 };
      { Sinks.name = "small"; pos = P.make 800. 0.; cap = 1e-15 };
      { Sinks.name = "mid"; pos = P.make 400. 600.; cap = 15e-15 };
    ]
  in
  let res = Cts.synthesize dl specs in
  let m = Ctree_sim.simulate tech res.Cts.tree in
  Alcotest.(check bool) "settles" true m.Ctree_sim.all_settled;
  Alcotest.(check bool) "skew bounded" true (m.Ctree_sim.skew < 60e-12)

let single_buffer_library () =
  (* The whole flow must work with a 1-buffer library (no sizing
     freedom). *)
  let lib1 = [ B.make ~name:"ONLY20X" ~size:20. ] in
  let dl = Delaylib.characterize ~profile:Delaylib.Fast tech lib1 in
  let specs = T_env.random_sinks ~seed:91 ~n:10 ~die:2500. () in
  let res = Cts.synthesize dl specs in
  Alcotest.(check (list string)) "valid" [] (Ctree.validate res.Cts.tree);
  (* Every buffer in the tree is the only type. *)
  Ctree.iter
    (fun n ->
      match n.Ctree.kind with
      | Ctree.Buf b ->
          Alcotest.(check string) "only type" "ONLY20X" b.B.name
      | Ctree.Sink _ | Ctree.Merge -> ())
    res.Cts.tree;
  let m = Ctree_sim.simulate tech res.Cts.tree in
  Alcotest.(check bool) "slew" true (m.Ctree_sim.worst_slew <= 100e-12)

let line_of_sinks () =
  (* Collinear sinks (a register file row): degenerate bounding boxes. *)
  let dl = T_env.get_dl () in
  let specs =
    List.init 8 (fun i ->
        {
          Sinks.name = Printf.sprintf "row%d" i;
          pos = P.make (float_of_int i *. 350.) 1000.;
          cap = 10e-15;
        })
  in
  let res = Cts.synthesize dl specs in
  Alcotest.(check (list string)) "valid" [] (Ctree.validate res.Cts.tree);
  let m = Ctree_sim.simulate tech res.Cts.tree in
  Alcotest.(check bool) "slew" true (m.Ctree_sim.worst_slew <= 100e-12);
  Alcotest.(check bool) "skew" true (m.Ctree_sim.skew <= 60e-12)

let netlist_card_counts () =
  (* The SPICE deck must carry one R and two C cards per wire edge, and
     one X card per buffer. *)
  let dl = T_env.get_dl () in
  let specs = T_env.random_sinks ~seed:92 ~n:6 ~die:1200. () in
  let res = Cts.synthesize dl specs in
  let deck = Ctree_netlist.to_deck tech res.Cts.tree in
  let count pfx =
    List.length
      (List.filter
         (fun l ->
           String.length l > String.length pfx
           && String.sub l 0 (String.length pfx) = pfx)
         (String.split_on_char '\n' deck))
  in
  let n_edges = ref 0 in
  Ctree.iter
    (fun n -> n_edges := !n_edges + List.length n.Ctree.children)
    res.Cts.tree;
  Alcotest.(check int) "R cards" !n_edges (count "Rw");
  Alcotest.(check int) "X cards" (Ctree.n_buffers res.Cts.tree) (count "X")

let bisection_timing_consistent () =
  let dl = T_env.get_dl () in
  let cfg = Cts_config.default dl in
  let specs = T_env.random_sinks ~seed:93 ~n:16 ~die:2500. () in
  let res = Cts.synthesize_bisection dl specs in
  let rep = Timing.analyze_tree dl cfg res.Cts.tree in
  let sim = Ctree_sim.simulate tech res.Cts.tree in
  let rel =
    Float.abs (rep.Timing.max_delay -. sim.Ctree_sim.latency)
    /. sim.Ctree_sim.latency
  in
  if rel > 0.15 then
    Alcotest.failf "timing engine off by %.0f%% on bisection tree" (rel *. 100.)

let qcheck_random_instances_meet_slew =
  QCheck.Test.make ~name:"random tiny instances meet the slew limit"
    ~count:6
    QCheck.(int_range 4 12)
    (fun n ->
      let seed = 1000 + n in
      let specs = T_env.random_sinks ~seed ~n ~die:3000. () in
      let res = Cts.synthesize (T_env.get_dl ()) specs in
      let m = Ctree_sim.simulate tech res.Cts.tree in
      m.Ctree_sim.all_settled
      && m.Ctree_sim.worst_slew <= 100e-12
      && Ctree.validate res.Cts.tree = [])

let qcheck_dme_vs_cts_sink_sets =
  QCheck.Test.make ~name:"DME and CTS preserve the sink set" ~count:10
    QCheck.(int_range 1 40)
    (fun n ->
      let specs = T_env.random_sinks ~seed:(2000 + n) ~n ~die:2000. () in
      let names =
        List.sort compare (List.map (fun (s : Sinks.spec) -> s.Sinks.name) specs)
      in
      let of_tree t =
        List.sort compare
          (List.filter_map
             (fun (s : Ctree.t) ->
               match s.Ctree.kind with
               | Ctree.Sink { name; _ } -> Some name
               | _ -> None)
             (Ctree.sinks t))
      in
      List.for_all
        (fun tree -> of_tree tree = names)
        [
          Dme.synthesize tech specs;
          Dme.synthesize_bounded ~skew_bound:20e-12 tech specs;
          Dme.synthesize_buffered tech T_env.lib specs;
          (Cts.synthesize (T_env.get_dl ()) specs).Cts.tree;
        ])

let useful_skew_scheduling () =
  let dl = T_env.get_dl () in
  let specs = T_env.random_sinks ~seed:94 ~n:16 ~die:2500. () in
  let target = List.hd specs in
  let config =
    {
      (Cts_config.default dl) with
      Cts_config.sink_offsets = [ (target.Sinks.name, 60e-12) ];
    }
  in
  let res = Cts.synthesize ~config dl specs in
  let m = Ctree_sim.simulate tech res.Cts.tree in
  let d_target = List.assoc target.Sinks.name m.Ctree_sim.sink_delays in
  let others =
    List.filter_map
      (fun (n, d) -> if n = target.Sinks.name then None else Some d)
      m.Ctree_sim.sink_delays
  in
  let mean_others =
    List.fold_left ( +. ) 0. others /. float_of_int (List.length others)
  in
  (* The scheduled sink arrives ~60 ps after the pack. *)
  let sep = d_target -. mean_others in
  if Float.abs (sep -. 60e-12) > 25e-12 then
    Alcotest.failf "separation %.1fps, wanted ~60ps" (sep *. 1e12);
  Alcotest.(check bool) "slew still met" true
    (m.Ctree_sim.worst_slew <= 100e-12)

let suite =
  [
    Alcotest.test_case "useful skew" `Slow useful_skew_scheduling;
    Alcotest.test_case "coincident sinks" `Slow coincident_sinks;
    Alcotest.test_case "two near sinks" `Quick two_sinks_minimal;
    Alcotest.test_case "extreme cap ratio" `Quick extreme_cap_ratio;
    Alcotest.test_case "single-buffer library" `Slow single_buffer_library;
    Alcotest.test_case "collinear sinks" `Slow line_of_sinks;
    Alcotest.test_case "netlist card counts" `Quick netlist_card_counts;
    Alcotest.test_case "bisection timing" `Slow bisection_timing_consistent;
    QCheck_alcotest.to_alcotest qcheck_random_instances_meet_slew;
    QCheck_alcotest.to_alcotest qcheck_dme_vs_cts_sink_sets;
  ]
