(* Second-wave coverage: edge cases and cross-module behaviours that the
   per-library suites don't reach. *)

module P = Geometry.Point
module Trr = Geometry.Trr
module W = Waveform
module T = Spice_sim.Transient
module Rc = Circuit.Rc_tree
module B = Circuit.Buffer_lib

let tech = T_env.tech
let check_f eps = Alcotest.(check (float eps))

(* ---------------- waveform edges ---------------- *)

let crossing_at_start () =
  (* A waveform already above the level crosses at its first sample. *)
  let w = W.make [| 1.; 2. |] [| 0.7; 1. |] in
  Alcotest.(check (option (float 1e-12))) "starts above" (Some 1.)
    (W.crossing w 0.5)

let smooth_curve_t0_offset () =
  let w0 = W.smooth_curve ~vdd:1. ~slew:100e-12 () in
  let w1 = W.smooth_curve ~t0:1e-9 ~vdd:1. ~slew:100e-12 () in
  let c0 = Option.get (W.crossing w0 0.5) in
  let c1 = Option.get (W.crossing w1 0.5) in
  check_f 1e-15 "t0 shifts crossing" 1e-9 (c1 -. c0)

let delay_50_negative_when_reversed () =
  let a = W.ramp ~vdd:1. ~slew:80e-12 () in
  let b = W.shift a (-20e-12) in
  match W.delay_50 a b ~vdd:1. with
  | Some d -> check_f 1e-15 "negative delay" (-20e-12) d
  | None -> Alcotest.fail "delay expected"

(* ---------------- geometry edges ---------------- *)

let trr_core_endpoints_on_arc () =
  let t = Trr.of_arc (P.make 2. 8.) (P.make 8. 2.) in
  let e1, e2 = Trr.core_endpoints t in
  Alcotest.(check bool) "e1 on region" true (Trr.contains t e1);
  Alcotest.(check bool) "e2 on region" true (Trr.contains t e2);
  check_f 1e-9 "endpoints span the arc" (P.manhattan (P.make 2. 8.) (P.make 8. 2.))
    (P.manhattan e1 e2)

(* ---------------- numerics edges ---------------- *)

let polyfit_low_degrees () =
  (* Degree 0: the fit is the mean. *)
  let pts = [| (0., 0.); (1., 0.); (2., 0.); (0., 1.) |] in
  let s = Numerics.Polyfit.fit2 ~degree:0 pts [| 2.; 4.; 6.; 8. |] in
  check_f 1e-6 "mean" 5. (Numerics.Polyfit.eval2 s 10. 10.);
  (* Degree 1: recovers a plane. *)
  let f x y = 1. +. (2. *. x) -. y in
  let zs = Array.map (fun (x, y) -> f x y) pts in
  let s1 = Numerics.Polyfit.fit2 ~degree:1 pts zs in
  check_f 1e-6 "plane" (f 1.5 0.5) (Numerics.Polyfit.eval2 s1 1.5 0.5)

let golden_min_boundary () =
  (* Monotone function: minimum at the boundary. *)
  let x = Numerics.Roots.golden_min (fun x -> x) 2. 5. in
  check_f 1e-3 "left boundary" 2. x

(* ---------------- circuit / device edges ---------------- *)

let crowbar_current_region () =
  (* Mid-transition both devices conduct; net current can be either sign
     but each device individually carries current. *)
  let i_n = Circuit.Device.nmos_current tech ~size:10. ~vgs:0.5 ~vds:0.5 in
  Alcotest.(check bool) "NMOS on at vin=vout=0.5" true (i_n > 0.)

let internal_cap_formula () =
  let b = B.by_name T_env.lib "BUF20X" in
  check_f 1e-20 "stage1 drain + stage2 gate"
    ((tech.Circuit.Tech.drain_cap_per_x *. b.B.stage1_size)
    +. (tech.Circuit.Tech.gate_cap_per_x *. b.B.size))
    (B.internal_cap tech b)

let wire_card_values () =
  let card =
    Circuit.Spice_deck.wire_card tech ~name:"w1" ~from_node:"a" ~to_node:"b"
      ~length:100.
  in
  Alcotest.(check bool) "resistance in card" true
    (let r = Printf.sprintf "%.6g" (Circuit.Tech.wire_res tech 100.) in
     let rec contains i =
       i + String.length r <= String.length card
       && (String.sub card i (String.length r) = r || contains (i + 1))
     in
     contains 0)

(* ---------------- simulator edges ---------------- *)

let sim_deterministic () =
  let input = W.smooth_curve ~vdd:1. ~slew:80e-12 () in
  let mk () =
    let load = Rc.leaf ~tag:"load" 5e-15 in
    let r, chain = Rc.wire tech ~length:700. load in
    Rc.node [ (r, chain) ]
  in
  let d1 =
    T.stage_delay (T.simulate tech (T.Driven_buffer (T_env.b20, input)) (mk ()))
      ~input ~tag:"load"
  in
  let d2 =
    T.stage_delay (T.simulate tech (T.Driven_buffer (T_env.b20, input)) (mk ()))
      ~input ~tag:"load"
  in
  check_f 0. "bit-identical runs" (Option.get d1) (Option.get d2)

(* ---------------- delaylib extras ---------------- *)

let delay_grows_with_load_class () =
  let dl = T_env.get_dl () in
  let d cap =
    (Delaylib.eval_single dl ~drive:T_env.b20 ~load_cap:cap ~input_slew:80e-12
       ~length:500.)
      .Delaylib.wire_delay
  in
  Alcotest.(check bool) "bigger load class slower" true (d 35e-15 > d 0.75e-15)

(* ---------------- dme baseline shape ---------------- *)

let baseline_violates_slew_on_big_die () =
  (* The paper's motivating failure: merge-node-only buffering cannot
     keep slew on a large die. This must reproduce, or the entire
     Table 5.1 contrast is meaningless. *)
  let specs = T_env.random_sinks ~seed:71 ~n:24 ~die:8000. () in
  let btree = Dme.synthesize_buffered tech T_env.lib specs in
  let m = Ctree_sim.simulate tech btree in
  Alcotest.(check bool) "baseline violates 100ps" true
    (m.Ctree_sim.worst_slew > 100e-12);
  (* ...while aggressive CTS on the same sinks does not. *)
  let res = Cts.synthesize (T_env.get_dl ()) specs in
  let ma = Ctree_sim.simulate tech res.Cts.tree in
  Alcotest.(check bool) "aggressive meets 100ps" true
    (ma.Ctree_sim.worst_slew <= 100e-12)

let elmore_latency_covers_all_sinks () =
  let specs = T_env.random_sinks ~seed:72 ~n:9 ~die:1500. () in
  let tree = Dme.synthesize tech specs in
  Alcotest.(check int) "one delay per sink" 9
    (List.length (Dme.elmore_latency tech tree))

(* ---------------- cts_core extras ---------------- *)

let timing_report_accessors () =
  let dl = T_env.get_dl () in
  let cfg = Cts_config.default dl in
  let specs = T_env.random_sinks ~seed:73 ~n:8 ~die:1200. () in
  let res = Cts.synthesize dl specs in
  let rep = Timing.analyze_tree dl cfg res.Cts.tree in
  check_f 1e-18 "skew = max - min"
    (rep.Timing.max_delay -. rep.Timing.min_delay)
    (Timing.skew rep);
  Alcotest.(check int) "all sinks" 8 (List.length rep.Timing.sink_delays)

let stage_slew_monotone_in_input () =
  let dl = T_env.get_dl () in
  let s = Ctree.sink ~name:"m" ~pos:(P.make 400. 0.) ~cap:10e-15 in
  let region = Ctree.merge ~pos:P.origin [ Ctree.edge ~length:400. s ] in
  let slew_at input_slew =
    Timing.stage_worst_slew dl ~drive:T_env.b20 ~input_slew region
  in
  Alcotest.(check bool) "monotone" true (slew_at 40e-12 <= slew_at 120e-12)

let run_top_load_after_buffer () =
  let dl = T_env.get_dl () in
  let cfg = Cts_config.default dl in
  let port =
    Port.of_sink { Sinks.name = "x"; pos = P.origin; cap = 25e-15 }
  in
  let e = Run.eval dl cfg port 2500. in
  match e.Run.buffers with
  | [] -> Alcotest.fail "expected buffers on a 2.5mm run"
  | _ :: _ ->
      let top = List.nth e.Run.buffers (List.length e.Run.buffers - 1) in
      check_f 1e-20 "top load is last buffer's gate"
        (B.input_cap tech top.Run.buf)
        e.Run.top_load

(* ---------------- topology extras ---------------- *)

let edge_cost_beta_zero_is_distance () =
  let a = { Topology.pos = P.make 0. 0.; delay = 5e-10 } in
  let b = { Topology.pos = P.make 3. 4.; delay = 0. } in
  check_f 1e-12 "pure distance" 7. (Topology.edge_cost ~beta:0. a b)

(* ---------------- bmark extras ---------------- *)

let ispd_make_helper () =
  let sinks = T_env.random_sinks ~seed:74 ~n:3 ~die:100. () in
  let t = Bmark.Ispd_format.make ~slew_limit:100e-12 sinks in
  Alcotest.(check int) "sinks kept" 3 (List.length t.Bmark.Ispd_format.sinks);
  let t' = Bmark.Ispd_format.parse (Bmark.Ispd_format.render t) in
  Alcotest.(check (option (float 1e-18))) "limit survives" (Some 100e-12)
    t'.Bmark.Ispd_format.slew_limit

let scaled_name_suffix () =
  let d = Bmark.Synthetic.scaled (Bmark.Synthetic.find "r3") 0.5 in
  Alcotest.(check string) "suffix" "r3@0.5" d.Bmark.Synthetic.name

(* ---------------- report extras ---------------- *)

let abl_topology_smoke () =
  let env =
    {
      Experiments.tech;
      lib = T_env.lib;
      dl = T_env.get_dl ();
      scale = 0.05;
      sim_config = T.default_config;
    }
  in
  let text = List.assoc "abl-topology" Experiments.all env in
  Alcotest.(check bool) "table rendered" true (String.length text > 200)

(* ---------------- netlist/deck deeper checks ---------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub hay i nn = needle then true
    else go (i + 1)
  in
  go 0

let deck_measure_cards_per_sink () =
  let s1 = Ctree.sink ~name:"ma" ~pos:(P.make 100. 0.) ~cap:5e-15 in
  let s2 = Ctree.sink ~name:"mb" ~pos:(P.make 0. 100.) ~cap:5e-15 in
  let m =
    Ctree.merge ~pos:P.origin
      [ Ctree.edge ~length:100. s1; Ctree.edge ~length:100. s2 ]
  in
  let t = Ctree.buffer ~pos:P.origin T_env.b20 [ Ctree.edge ~length:0. m ] in
  let deck = Ctree_netlist.to_deck tech t in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains deck needle))
    [
      ".measure tran delay_ma"; ".measure tran delay_mb";
      ".measure tran slew_ma"; ".measure tran slew_mb";
    ]

(* ---------------- waveform final-value edge cases ---------------- *)

let incomplete_rise_detected () =
  let w = W.make [| 0.; 1e-10 |] [| 0.; 0.5 |] in
  Alcotest.(check bool) "incomplete" false (W.is_complete_rise w ~vdd:1.);
  Alcotest.(check bool) "no 10-90 slew" true (W.slew_10_90 w ~vdd:1. = None)

(* ---------------- config derivations ---------------- *)

let config_respects_library () =
  let dl = T_env.get_dl () in
  let cfg = Cts_config.default dl in
  (* The assumed driver must be a member of the library. *)
  Alcotest.(check bool) "assumed driver in library" true
    (List.exists
       (fun (b : B.t) -> B.equal b cfg.Cts_config.assumed_driver)
       (Delaylib.buffers dl));
  Alcotest.(check bool) "target under limit" true
    (cfg.Cts_config.slew_target < cfg.Cts_config.slew_limit);
  let cfg' = Cts_config.with_hstructure cfg Cts_config.H_correct in
  Alcotest.(check bool) "hstructure set" true
    (cfg'.Cts_config.hstructure = Cts_config.H_correct)

(* ---------------- drive-strength consistency ---------------- *)

let spans_consistent_with_max_length () =
  let dl = T_env.get_dl () in
  let cfg = Cts_config.default dl in
  (* Run.span memoization returns the same value as a direct query. *)
  let direct =
    Delaylib.max_length_for_slew dl ~drive:T_env.b20 ~load_cap:5e-15
      ~input_slew:cfg.Cts_config.slew_target
      ~slew_limit:cfg.Cts_config.slew_target
  in
  check_f 1e-9 "memoized = direct" direct
    (Run.span dl cfg ~drive:T_env.b20 ~load_cap:5e-15);
  check_f 1e-9 "memoized twice identical"
    (Run.span dl cfg ~drive:T_env.b20 ~load_cap:5e-15)
    (Run.span dl cfg ~drive:T_env.b20 ~load_cap:5e-15)

let elmore_estimate_orders_buffers () =
  (* The DME baseline's coarse buffer delay model must at least order the
     library correctly: stronger buffers are faster into the same load. *)
  let d b = Dme.buffer_delay_estimate tech b ~load:50e-15 in
  Alcotest.(check bool) "30X < 20X < 10X" true
    (d T_env.b30 < d T_env.b20 && d T_env.b20 < d T_env.b10)

let suite =
  [
    Alcotest.test_case "deck measure cards" `Quick deck_measure_cards_per_sink;
    Alcotest.test_case "incomplete rise" `Quick incomplete_rise_detected;
    Alcotest.test_case "config derivations" `Quick config_respects_library;
    Alcotest.test_case "span consistency" `Quick spans_consistent_with_max_length;
    Alcotest.test_case "baseline buffer ordering" `Quick
      elmore_estimate_orders_buffers;
    Alcotest.test_case "crossing at start" `Quick crossing_at_start;
    Alcotest.test_case "smooth curve t0" `Quick smooth_curve_t0_offset;
    Alcotest.test_case "negative delay" `Quick delay_50_negative_when_reversed;
    Alcotest.test_case "trr core endpoints" `Quick trr_core_endpoints_on_arc;
    Alcotest.test_case "polyfit low degrees" `Quick polyfit_low_degrees;
    Alcotest.test_case "golden min boundary" `Quick golden_min_boundary;
    Alcotest.test_case "crowbar region" `Quick crowbar_current_region;
    Alcotest.test_case "internal cap" `Quick internal_cap_formula;
    Alcotest.test_case "wire card values" `Quick wire_card_values;
    Alcotest.test_case "sim deterministic" `Quick sim_deterministic;
    Alcotest.test_case "delay vs load class" `Quick delay_grows_with_load_class;
    Alcotest.test_case "baseline violates on big die" `Slow
      baseline_violates_slew_on_big_die;
    Alcotest.test_case "elmore latency coverage" `Quick
      elmore_latency_covers_all_sinks;
    Alcotest.test_case "timing accessors" `Quick timing_report_accessors;
    Alcotest.test_case "stage slew monotone" `Quick stage_slew_monotone_in_input;
    Alcotest.test_case "run top load" `Quick run_top_load_after_buffer;
    Alcotest.test_case "edge cost beta 0" `Quick edge_cost_beta_zero_is_distance;
    Alcotest.test_case "ispd make" `Quick ispd_make_helper;
    Alcotest.test_case "scaled name" `Quick scaled_name_suffix;
    Alcotest.test_case "abl-topology smoke" `Slow abl_topology_smoke;
  ]
