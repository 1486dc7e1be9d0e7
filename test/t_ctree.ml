(* Tests for the clock tree data structure, its simulator and netlist
   export. *)

module P = Geometry.Point
module B = Circuit.Buffer_lib

let tech = T_env.tech
let check_f eps = Alcotest.(check (float eps))

let tiny_tree () =
  (* driver -> 300um -> merge -> {200um -> s1, 250um -> s2} *)
  let s1 = Ctree.sink ~name:"s1" ~pos:(P.make 0. 0.) ~cap:10e-15 in
  let s2 = Ctree.sink ~name:"s2" ~pos:(P.make 450. 0.) ~cap:12e-15 in
  let m =
    Ctree.merge ~pos:(P.make 200. 0.)
      [ Ctree.connect ~parent_pos:(P.make 200. 0.) s1;
        Ctree.connect ~parent_pos:(P.make 200. 0.) s2 ]
  in
  Ctree.buffer ~pos:(P.make 200. 300.) T_env.b20
    [ Ctree.connect ~parent_pos:(P.make 200. 300.) m ]

let structure_accessors () =
  let t = tiny_tree () in
  Alcotest.(check int) "nodes" 4 (Ctree.n_nodes t);
  Alcotest.(check int) "buffers" 1 (Ctree.n_buffers t);
  Alcotest.(check int) "sinks" 2 (List.length (Ctree.sinks t));
  check_f 1e-9 "wirelength" (300. +. 200. +. 250.) (Ctree.total_wirelength t);
  check_f 1e-20 "sink cap" 22e-15 (Ctree.total_sink_cap t);
  Alcotest.(check (list (pair string int))) "histogram"
    [ ("BUF20X", 1) ]
    (Ctree.buffer_histogram t)

let validate_ok () =
  Alcotest.(check (list string)) "valid" [] (Ctree.validate (tiny_tree ()))

let validate_catches_short_edge () =
  let s = Ctree.sink ~name:"s" ~pos:(P.make 100. 0.) ~cap:1e-15 in
  let m = Ctree.merge ~pos:P.origin [ Ctree.edge ~length:10. s ] in
  Alcotest.(check bool) "short edge flagged" true
    (List.length (Ctree.validate m) > 0)

let validate_catches_fat_arity () =
  let mk i = Ctree.sink ~name:(Printf.sprintf "s%d" i) ~pos:P.origin ~cap:1e-15 in
  let m =
    Ctree.merge ~pos:P.origin
      [ Ctree.edge ~length:0. (mk 0); Ctree.edge ~length:0. (mk 1);
        Ctree.edge ~length:0. (mk 2) ]
  in
  Alcotest.(check bool) "arity flagged" true (List.length (Ctree.validate m) > 0)

let connect_extra_length () =
  let s = Ctree.sink ~name:"s" ~pos:(P.make 30. 40.) ~cap:1e-15 in
  let e = Ctree.connect ~parent_pos:P.origin ~extra:25. s in
  check_f 1e-12 "snaked edge" 95. e.Ctree.length

let sim_tiny_tree () =
  let t = tiny_tree () in
  let m = Ctree_sim.simulate tech t in
  Alcotest.(check bool) "settled" true m.Ctree_sim.all_settled;
  Alcotest.(check int) "two sinks" 2 (List.length m.Ctree_sim.sink_delays);
  Alcotest.(check bool) "positive latency" true (m.Ctree_sim.latency > 0.);
  Alcotest.(check bool) "skew below latency" true
    (m.Ctree_sim.skew <= m.Ctree_sim.latency);
  (* s2 is 50um farther: it must be the slower sink. *)
  let d1 = List.assoc "s1" m.Ctree_sim.sink_delays in
  let d2 = List.assoc "s2" m.Ctree_sim.sink_delays in
  Alcotest.(check bool) "farther sink slower" true (d2 > d1)

let sim_balanced_tree_zero_skew () =
  (* Perfectly symmetric H: skew must be ~0. *)
  let mk name x =
    Ctree.sink ~name ~pos:(P.make x 0.) ~cap:10e-15
  in
  let m =
    Ctree.merge ~pos:(P.make 0. 0.)
      [ Ctree.edge ~length:400. (mk "l" (-400.));
        Ctree.edge ~length:400. (mk "r" 400.) ]
  in
  let t = Ctree.buffer ~pos:P.origin T_env.b20 [ Ctree.edge ~length:0. m ] in
  let r = Ctree_sim.simulate tech t in
  Alcotest.(check bool) "near-zero skew" true (r.Ctree_sim.skew < 0.5e-12)

let sim_requires_buffer_root () =
  let s = Ctree.sink ~name:"s" ~pos:P.origin ~cap:1e-15 in
  Alcotest.check_raises "root must be buffer"
    (Invalid_argument "Ctree_sim.simulate: root must be a buffer") (fun () ->
      ignore (Ctree_sim.simulate tech s))

let sim_rejects_source_without_crossing () =
  (* A raised-cosine source always reaches Vdd, so only a non-finite
     supply leaves no 50% crossing. *)
  let tech = { tech with Circuit.Tech.vdd = Float.nan } in
  Alcotest.check_raises "source never crosses 50%"
    (Invalid_argument
       "Ctree_sim.simulate: source of slew 60 ps never crosses 50% of Vdd = \
        nan V")
    (fun () -> ignore (Ctree_sim.simulate tech (tiny_tree ())))

let sim_cascaded_buffers () =
  (* Chain of 3 buffers: stages compose; latency exceeds single-stage. *)
  let s = Ctree.sink ~name:"s" ~pos:(P.make 900. 0.) ~cap:10e-15 in
  let b1 =
    Ctree.buffer ~pos:(P.make 600. 0.) T_env.b10 [ Ctree.edge ~length:300. s ]
  in
  let b2 =
    Ctree.buffer ~pos:(P.make 300. 0.) T_env.b10 [ Ctree.edge ~length:300. b1 ]
  in
  let root =
    Ctree.buffer ~pos:P.origin T_env.b20 [ Ctree.edge ~length:300. b2 ]
  in
  let m = Ctree_sim.simulate tech root in
  Alcotest.(check int) "3 stages" 3 m.Ctree_sim.n_stages;
  Alcotest.(check bool) "latency sums stages" true
    (m.Ctree_sim.latency > 60e-12)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  go 0

let netlist_deck_structure () =
  let t = tiny_tree () in
  let deck = Ctree_netlist.to_deck tech t in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in deck") true (contains deck needle))
    [
      "Vclk"; ".subckt BUF20X"; "Csink_s1"; "Csink_s2"; ".measure tran delay_s1";
      ".measure tran slew_s2"; ".tran"; ".end";
    ];
  (* Exactly one buffer instance (X card) for the driver. *)
  let count_x = ref 0 in
  String.split_on_char '\n' deck
  |> List.iter (fun l -> if String.length l > 0 && l.[0] = 'X' then incr count_x);
  Alcotest.(check int) "one buffer instance" 1 !count_x

let netlist_rejects_merge_root () =
  let s = Ctree.sink ~name:"s" ~pos:P.origin ~cap:1e-15 in
  let m = Ctree.merge ~pos:P.origin [ Ctree.edge ~length:0. s ] in
  Alcotest.check_raises "merge root rejected"
    (Invalid_argument "Ctree_netlist.to_deck: root must be a buffer")
    (fun () -> ignore (Ctree_netlist.to_deck tech m))

let capacitance_breakdown_consistent () =
  let t = tiny_tree () in
  let cb = Ctree.capacitance_breakdown tech t in
  check_f 1e-20 "sink cap matches" (Ctree.total_sink_cap t) cb.Ctree.sink_cap;
  check_f 1e-20 "wire cap = unit_cap * wirelength"
    (Circuit.Tech.wire_cap tech (Ctree.total_wirelength t))
    cb.Ctree.wire_cap;
  Alcotest.(check bool) "buffer cap positive" true (cb.Ctree.buffer_cap > 0.)

let dynamic_power_scales () =
  let t = tiny_tree () in
  let p1 = Ctree.dynamic_power tech ~freq:1e9 t in
  let p2 = Ctree.dynamic_power tech ~freq:2e9 t in
  check_f 1e-12 "linear in frequency" (2. *. p1) p2;
  Alcotest.(check bool) "positive" true (p1 > 0.)

let svg_rendering () =
  let t = tiny_tree () in
  let svg = Ctree_svg.render t in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains svg needle))
    [ "<svg"; "</svg>"; "<circle"; "<rect"; "<polyline" ];
  (* One polyline per edge (3 edges in the tiny tree). *)
  let count =
    List.length
      (List.filter
         (fun l -> contains l "<polyline")
         (String.split_on_char '\n' svg))
  in
  Alcotest.(check int) "one polyline per edge" 3 count

let sinks_validate () =
  let ok =
    [ { Sinks.name = "a"; pos = P.origin; cap = 1e-15 };
      { Sinks.name = "b"; pos = P.make 1. 1.; cap = 2e-15 } ]
  in
  Alcotest.(check (list string)) "valid sinks" [] (Sinks.validate ok);
  let dup = { Sinks.name = "a"; pos = P.make 2. 2.; cap = 1e-15 } :: ok in
  Alcotest.(check bool) "duplicate flagged" true (Sinks.validate dup <> []);
  let bad_cap = [ { Sinks.name = "c"; pos = P.origin; cap = 0. } ] in
  Alcotest.(check bool) "bad cap flagged" true (Sinks.validate bad_cap <> []);
  Alcotest.(check bool) "empty flagged" true (Sinks.validate [] <> [])

(* A NaN or infinite field is rejected with the sink and the field
   named; the cap check alone passes a NaN ([nan <= 0.] is false). *)
let sinks_reject_non_finite field set () =
  let ok = { Sinks.name = "a"; pos = P.make 1. 1.; cap = 1e-15 } in
  List.iter
    (fun v ->
      let errs = Sinks.validate [ set ok v ] in
      let expected = Printf.sprintf "sink a has non-finite %s (%g)" field v in
      Alcotest.(check bool)
        (Printf.sprintf "%s = %g names sink and field" field v)
        true (List.mem expected errs))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let suite =
  [
    Alcotest.test_case "structure accessors" `Quick structure_accessors;
    Alcotest.test_case "validate ok" `Quick validate_ok;
    Alcotest.test_case "validate short edge" `Quick validate_catches_short_edge;
    Alcotest.test_case "validate arity" `Quick validate_catches_fat_arity;
    Alcotest.test_case "connect extra" `Quick connect_extra_length;
    Alcotest.test_case "sim tiny tree" `Quick sim_tiny_tree;
    Alcotest.test_case "sim symmetric zero skew" `Quick
      sim_balanced_tree_zero_skew;
    Alcotest.test_case "sim root check" `Quick sim_requires_buffer_root;
    Alcotest.test_case "sim source check" `Quick
      sim_rejects_source_without_crossing;
    Alcotest.test_case "sim cascaded buffers" `Quick sim_cascaded_buffers;
    Alcotest.test_case "netlist deck structure" `Quick netlist_deck_structure;
    Alcotest.test_case "netlist root check" `Quick netlist_rejects_merge_root;
    Alcotest.test_case "capacitance breakdown" `Quick
      capacitance_breakdown_consistent;
    Alcotest.test_case "dynamic power" `Quick dynamic_power_scales;
    Alcotest.test_case "svg rendering" `Quick svg_rendering;
    Alcotest.test_case "sinks validate" `Quick sinks_validate;
    Alcotest.test_case "sinks reject non-finite cap" `Quick
      (sinks_reject_non_finite "cap" (fun s v -> { s with Sinks.cap = v }));
    Alcotest.test_case "sinks reject non-finite x" `Quick
      (sinks_reject_non_finite "x" (fun s v ->
           { s with Sinks.pos = { s.Sinks.pos with P.x = v } }));
    Alcotest.test_case "sinks reject non-finite y" `Quick
      (sinks_reject_non_finite "y" (fun s v ->
           { s with Sinks.pos = { s.Sinks.pos with P.y = v } }));
  ]
