(* Tests for moment analysis and closed-form delay/slew metrics. *)

module Mo = Elmore.Moments
module Rc = Circuit.Rc_tree

let tech = Circuit.Tech.default
let check_f eps = Alcotest.(check (float eps))

let single_pole_exact () =
  (* R into C: Elmore = RC; D2M = ln2 * RC exactly for one pole. *)
  let r = 1000. and c = 50e-15 in
  let tree = Rc.node [ (r, Rc.leaf ~tag:"load" c) ] in
  let m = Mo.analyze tree in
  let tau = r *. c in
  check_f (1e-6 *. tau) "elmore = RC" tau (Mo.elmore m "load");
  check_f (1e-6 *. tau) "d2m exact on one pole" (Float.log 2. *. tau)
    (Mo.d2m m "load");
  (* Exponential step response: variance = tau^2, Gaussian 10-90 approx. *)
  check_f (1e-6 *. tau) "step slew" (2.5631 *. tau) (Mo.step_slew m "load")

let source_resistance_adds () =
  let c = 50e-15 in
  let tree = Rc.node [ (1e-9, Rc.leaf ~tag:"load" c) ] in
  let m = Mo.analyze ~source_res:500. tree in
  check_f 1e-15 "elmore with rs" (500. *. c) (Mo.elmore m "load")

let ladder_elmore () =
  (* Two-lump ladder: R1 C1, R2 C2. Elmore at the end:
     R1 (C1 + C2) + R2 C2. *)
  let r1 = 100. and c1 = 10e-15 and r2 = 200. and c2 = 20e-15 in
  let tree =
    Rc.node [ (r1, Rc.node ~tag:"mid" ~cap:c1 [ (r2, Rc.leaf ~tag:"end" c2) ]) ]
  in
  let m = Mo.analyze tree in
  check_f 1e-18 "end node" ((r1 *. (c1 +. c2)) +. (r2 *. c2)) (Mo.elmore m "end");
  check_f 1e-18 "mid node" (r1 *. (c1 +. c2)) (Mo.elmore m "mid")

let branch_shared_path () =
  (* Y-tree: shared trunk resistance appears in both branch delays. *)
  let tree =
    Rc.node
      [
        ( 100.,
          Rc.node ~tag:"fork" ~cap:5e-15
            [ (50., Rc.leaf ~tag:"a" 10e-15); (300., Rc.leaf ~tag:"b" 10e-15) ] );
      ]
  in
  let m = Mo.analyze tree in
  let total_c = 25e-15 in
  check_f 1e-18 "branch a" ((100. *. total_c) +. (50. *. 10e-15)) (Mo.elmore m "a");
  check_f 1e-18 "branch b" ((100. *. total_c) +. (300. *. 10e-15)) (Mo.elmore m "b");
  Alcotest.(check bool) "longer branch slower" true
    (Mo.elmore m "b" > Mo.elmore m "a")

(* A discretized wire driven ideally should match the distributed Elmore
   formula alpha*l*(beta*l/2 + C_load) as lumps shrink. *)
let distributed_wire_matches_formula () =
  let len = 1000. and load = 10e-15 in
  let leaf = Rc.leaf ~tag:"load" load in
  let r, chain = Rc.wire tech ~max_segment_len:5. ~length:len leaf in
  let tree = Rc.node [ (r, chain) ] in
  let m = Mo.analyze tree in
  let alpha = tech.Circuit.Tech.unit_res and beta = tech.Circuit.Tech.unit_cap in
  let expected = alpha *. len *. ((beta *. len /. 2.) +. load) in
  check_f (0.02 *. expected) "distributed formula" expected (Mo.elmore m "load")

let d2m_below_elmore () =
  (* For RC ladders D2M <= Elmore (it corrects the overestimate). *)
  let leaf = Rc.leaf ~tag:"load" 5e-15 in
  let r, chain = Rc.wire tech ~length:800. leaf in
  let tree = Rc.node [ (r, chain) ] in
  let m = Mo.analyze ~source_res:200. tree in
  Alcotest.(check bool) "d2m < elmore" true (Mo.d2m m "load" < Mo.elmore m "load")

let ramp_slew_rss () =
  let leaf = Rc.leaf ~tag:"load" 5e-15 in
  let r, chain = Rc.wire tech ~length:500. leaf in
  let tree = Rc.node [ (r, chain) ] in
  let m = Mo.analyze ~source_res:200. tree in
  let s0 = Mo.step_slew m "load" in
  let s_ramp = Mo.ramp_slew m "load" ~input_slew:100e-12 in
  check_f 1e-15 "rss"
    (sqrt ((s0 *. s0) +. (100e-12 *. 100e-12)))
    s_ramp;
  Alcotest.(check bool) "ramp slew above step slew" true (s_ramp > s0)

let unknown_tag_raises () =
  let tree = Rc.node [ (1., Rc.leaf ~tag:"x" 1e-15) ] in
  let m = Mo.analyze tree in
  Alcotest.check_raises "unknown tag" Not_found (fun () ->
      ignore (Mo.elmore m "nope"))

let qcheck_elmore_monotone_in_length =
  QCheck.Test.make ~name:"Elmore monotone in wire length" ~count:50
    QCheck.(pair (float_range 50. 1000.) (float_range 1.05 3.))
    (fun (len, factor) ->
      let analyze l =
        let leaf = Rc.leaf ~tag:"load" 5e-15 in
        let r, chain = Rc.wire tech ~length:l leaf in
        let m = Mo.analyze (Rc.node [ (r, chain) ]) in
        Mo.elmore m "load"
      in
      analyze (len *. factor) > analyze len)

let suite ~property =
  [
    Alcotest.test_case "single pole exact" `Quick single_pole_exact;
    Alcotest.test_case "source resistance" `Quick source_resistance_adds;
    Alcotest.test_case "ladder elmore" `Quick ladder_elmore;
    Alcotest.test_case "branch shared path" `Quick branch_shared_path;
    Alcotest.test_case "distributed wire formula" `Quick
      distributed_wire_matches_formula;
    Alcotest.test_case "d2m below elmore" `Quick d2m_below_elmore;
    Alcotest.test_case "ramp slew rss" `Quick ramp_slew_rss;
    Alcotest.test_case "unknown tag" `Quick unknown_tag_raises;
    property qcheck_elmore_monotone_in_length;
  ]
