(* Tests for merge-segment algebra and DME synthesis. *)

module P = Geometry.Point
module Trr = Geometry.Trr

let tech = T_env.tech
let check_f eps = Alcotest.(check (float eps))

let wire_elmore_formula () =
  let alpha = tech.Circuit.Tech.unit_res and beta = tech.Circuit.Tech.unit_cap in
  check_f 1e-20 "formula"
    (alpha *. 100. *. ((beta *. 100. /. 2.) +. 5e-15))
    (Merge_seg.wire_elmore tech ~length:100. ~load:5e-15)

let snake_length_inverts_elmore () =
  let load = 10e-15 in
  let delay = Merge_seg.wire_elmore tech ~length:321. ~load in
  check_f 1e-6 "inverse" 321.
    (Merge_seg.snake_length_for_delay tech ~load ~delay);
  check_f 1e-12 "zero delay" 0.
    (Merge_seg.snake_length_for_delay tech ~load ~delay:0.)

let merge_balanced_symmetric () =
  (* Equal subtrees merge exactly in the middle. *)
  let a1 = Trr.of_point (P.make 0. 0.) and a2 = Trr.of_point (P.make 100. 0.) in
  let m =
    Merge_seg.merge tech ~arc1:a1 ~t1:0. ~c1:10e-15 ~arc2:a2 ~t2:0. ~c2:10e-15
  in
  check_f 1e-6 "len1 half" 50. m.Merge_seg.len1;
  check_f 1e-6 "len2 half" 50. m.Merge_seg.len2;
  check_f 1e-18 "delay balanced"
    (Merge_seg.wire_elmore tech ~length:50. ~load:10e-15)
    m.Merge_seg.delay;
  check_f 1e-20 "cap sum"
    (20e-15 +. (tech.Circuit.Tech.unit_cap *. 100.))
    m.Merge_seg.cap

let merge_skewed_toward_slower () =
  (* t2 > t1 but balanceable within the span: the tap moves toward side 2
     (len2 < len1) without snaking. *)
  let a1 = Trr.of_point (P.make 0. 0.) and a2 = Trr.of_point (P.make 100. 0.) in
  let t2 = 3e-13 in
  let m =
    Merge_seg.merge tech ~arc1:a1 ~t1:0. ~c1:10e-15 ~arc2:a2 ~t2 ~c2:10e-15
  in
  Alcotest.(check bool) "tap toward slower side" true
    (m.Merge_seg.len2 < m.Merge_seg.len1);
  check_f 1e-6 "lengths sum to distance" 100.
    (m.Merge_seg.len1 +. m.Merge_seg.len2);
  (* Both sides see the same delay at the tap. *)
  check_f 1e-18 "balance"
    (Merge_seg.wire_elmore tech ~length:m.Merge_seg.len1 ~load:10e-15)
    (t2 +. Merge_seg.wire_elmore tech ~length:m.Merge_seg.len2 ~load:10e-15)

let merge_detour_case () =
  (* Side 2 so much slower that even all wire on side 1 cannot balance:
     tap lands on arc2 and side 1 gets snaked wire. *)
  let a1 = Trr.of_point (P.make 0. 0.) and a2 = Trr.of_point (P.make 10. 0.) in
  let big = 1e-9 in
  let m =
    Merge_seg.merge tech ~arc1:a1 ~t1:0. ~c1:10e-15 ~arc2:a2 ~t2:big ~c2:10e-15
  in
  check_f 1e-12 "len2 zero" 0. m.Merge_seg.len2;
  Alcotest.(check bool) "len1 snaked beyond distance" true
    (m.Merge_seg.len1 > 10.);
  check_f 1e-15 "delay = slower side" big m.Merge_seg.delay;
  check_f 1e-15 "snake balances"
    big
    (Merge_seg.wire_elmore tech ~length:m.Merge_seg.len1 ~load:10e-15)

let merge_segment_is_manhattan_arc () =
  let a1 = Trr.of_point (P.make 0. 0.) and a2 = Trr.of_point (P.make 60. 80.) in
  let m =
    Merge_seg.merge tech ~arc1:a1 ~t1:0. ~c1:5e-15 ~arc2:a2 ~t2:0. ~c2:5e-15
  in
  Alcotest.(check bool) "ms is arc" true (Trr.is_arc ~eps:1e-4 m.Merge_seg.ms)

let dme_zero_skew_elmore () =
  (* The fundamental DME invariant: zero Elmore skew by construction. *)
  List.iter
    (fun (seed, n) ->
      let specs = T_env.random_sinks ~seed ~n ~die:3000. () in
      let tree = Dme.synthesize tech specs in
      let skew = Dme.elmore_skew tech tree in
      if skew > 1e-14 then
        Alcotest.failf "seed %d: elmore skew %.3g s" seed skew;
      Alcotest.(check (list string)) "valid tree" [] (Ctree.validate tree);
      Alcotest.(check int) "all sinks present" n (List.length (Ctree.sinks tree)))
    [ (1, 5); (2, 16); (3, 33); (4, 64) ]

let dme_single_sink () =
  let specs = T_env.random_sinks ~seed:5 ~n:1 ~die:100. () in
  let tree = Dme.synthesize tech specs in
  Alcotest.(check int) "one node" 1 (Ctree.n_nodes tree)

let dme_rejects_empty () =
  Alcotest.check_raises "no sinks" (Invalid_argument "Dme.synthesize: no sinks")
    (fun () -> ignore (Dme.synthesize tech []))

let buffered_dme_structure () =
  let specs = T_env.random_sinks ~seed:6 ~n:20 ~die:4000. () in
  let tree = Dme.synthesize_buffered tech T_env.lib specs in
  (match tree.Ctree.kind with
  | Ctree.Buf _ -> ()
  | Ctree.Merge | Ctree.Sink _ -> Alcotest.fail "root driver expected");
  Alcotest.(check bool) "buffers inserted" true (Ctree.n_buffers tree > 1);
  Alcotest.(check (list string)) "valid" [] (Ctree.validate tree);
  (* Buffers sit only on merge nodes (arity 2) or the root driver:
     merge-node-only insertion means no degree-1 mid-wire buffers except
     the root. *)
  let bad = ref 0 in
  Ctree.iter
    (fun n ->
      match n.Ctree.kind with
      | Ctree.Buf _ when n.Ctree.id <> tree.Ctree.id ->
          if List.length n.Ctree.children <> 2 then incr bad
      | Ctree.Buf _ | Ctree.Merge | Ctree.Sink _ -> ())
    tree;
  Alcotest.(check int) "no mid-wire buffers in baseline" 0 !bad

let buffered_dme_simulates () =
  let specs = T_env.random_sinks ~seed:7 ~n:12 ~die:2000. () in
  let tree = Dme.synthesize_buffered tech T_env.lib specs in
  let m = Ctree_sim.simulate tech tree in
  Alcotest.(check bool) "settles" true m.Ctree_sim.all_settled;
  Alcotest.(check int) "all sinks" 12 (List.length m.Ctree_sim.sink_delays)

let buffer_delay_estimate_monotone () =
  let d load = Dme.buffer_delay_estimate tech T_env.b20 ~load in
  Alcotest.(check bool) "grows with load" true (d 50e-15 > d 5e-15)

let bounded_dme_honours_bound () =
  let specs = T_env.random_sinks ~seed:8 ~n:24 ~die:3000. () in
  (* Stress with wide cap spread. *)
  let specs =
    List.mapi
      (fun i (s : Sinks.spec) ->
        { s with Sinks.cap = 1e-15 +. (float_of_int (i mod 12) *. 8e-15) })
      specs
  in
  List.iter
    (fun bound ->
      let tree = Dme.synthesize_bounded ~skew_bound:bound tech specs in
      Alcotest.(check (list string)) "valid" [] (Ctree.validate tree);
      Alcotest.(check int) "all sinks" 24 (List.length (Ctree.sinks tree));
      let skew = Dme.elmore_skew tech tree in
      if skew > bound +. 1e-13 then
        Alcotest.failf "bound %.0fps violated: skew %.2fps" (bound *. 1e12)
          (skew *. 1e12))
    [ 0.; 10e-12; 30e-12; 80e-12 ]

let bounded_dme_saves_snake_wire () =
  let specs = T_env.random_sinks ~seed:9 ~n:20 ~die:2500. () in
  let specs =
    List.mapi
      (fun i (s : Sinks.spec) ->
        { s with Sinks.cap = 1e-15 +. (float_of_int (i mod 10) *. 10e-15) })
      specs
  in
  let wl bound =
    Ctree.total_wirelength (Dme.synthesize_bounded ~skew_bound:bound tech specs)
  in
  (* A loose bound never needs more wire than zero skew. *)
  Alcotest.(check bool) "loose bound saves (or matches) wire" true
    (wl 100e-12 <= wl 0. +. 1.)

let bounded_zero_matches_zero_skew () =
  let specs = T_env.random_sinks ~seed:10 ~n:15 ~die:2000. () in
  let tree = Dme.synthesize_bounded ~skew_bound:0. tech specs in
  Alcotest.(check bool) "essentially zero skew" true
    (Dme.elmore_skew tech tree < 0.1e-12)

let qcheck_merge_balances =
  QCheck.Test.make ~name:"merge always balances Elmore delays" ~count:200
    QCheck.(
      quad (float_range 0. 500.) (float_range 0. 500.)
        (pair (float_range 0. 2e-10) (float_range 0. 2e-10))
        (pair (float_range 1e-15 5e-14) (float_range 1e-15 5e-14)))
    (fun (x2, y2, (t1, t2), (c1, c2)) ->
      let a1 = Trr.of_point (P.make 0. 0.) in
      let a2 = Trr.of_point (P.make x2 y2) in
      let m = Merge_seg.merge tech ~arc1:a1 ~t1 ~c1 ~arc2:a2 ~t2 ~c2 in
      let d1 = t1 +. Merge_seg.wire_elmore tech ~length:m.Merge_seg.len1 ~load:c1 in
      let d2 = t2 +. Merge_seg.wire_elmore tech ~length:m.Merge_seg.len2 ~load:c2 in
      Float.abs (d1 -. d2) < 1e-15 +. (1e-9 *. Float.max d1 d2))

let suite ~property =
  [
    Alcotest.test_case "wire elmore formula" `Quick wire_elmore_formula;
    Alcotest.test_case "snake length inverse" `Quick snake_length_inverts_elmore;
    Alcotest.test_case "merge symmetric" `Quick merge_balanced_symmetric;
    Alcotest.test_case "merge skewed" `Quick merge_skewed_toward_slower;
    Alcotest.test_case "merge detour" `Quick merge_detour_case;
    Alcotest.test_case "merge segment shape" `Quick merge_segment_is_manhattan_arc;
    Alcotest.test_case "DME zero Elmore skew" `Quick dme_zero_skew_elmore;
    Alcotest.test_case "DME single sink" `Quick dme_single_sink;
    Alcotest.test_case "DME rejects empty" `Quick dme_rejects_empty;
    Alcotest.test_case "buffered DME structure" `Quick buffered_dme_structure;
    Alcotest.test_case "buffered DME simulates" `Quick buffered_dme_simulates;
    Alcotest.test_case "bounded DME honours bound" `Quick bounded_dme_honours_bound;
    Alcotest.test_case "bounded DME saves snake wire" `Quick bounded_dme_saves_snake_wire;
    Alcotest.test_case "bounded zero = zero skew" `Quick bounded_zero_matches_zero_skew;
    Alcotest.test_case "buffer delay estimate" `Quick
      buffer_delay_estimate_monotone;
    property qcheck_merge_balances;
  ]
