(* Tests for the clock-tree invariant checker (Ctree_check) and its
   Cts glue: every synthesized tree must verify clean, and hand-broken
   trees must fail the specific invariant that was broken. *)

module P = Geometry.Point
module C = Ctree

let dl () = T_env.get_dl ()
let cfg () = Cts_config.default (dl ())
let env () = Cts.check_env ~source_slew:Ctree.source_slew (dl ()) (cfg ())

(* Hand-built nodes with explicit ids: the whole point is constructing
   trees the library's own constructors would never produce. *)
let sink ~id ~name ~pos ~cap = { C.id; kind = C.Sink { name; cap }; pos; children = [] }
let mnode ~id ~pos children = { C.id; kind = C.Merge; pos; children }
let bnode ~id ~pos b children = { C.id; kind = C.Buf b; pos; children }
let edge ?(route = []) ~length child = { C.length; route; child }

let driver () = Circuit.Buffer_lib.largest (Delaylib.buffers (dl ()))

(* Two sinks per merge, sink [k] 100 um from (0, 0) in direction [k],
   under one driver buffer, numbered in preorder. *)
let quad_tree names =
  let dirs = [| (100., 0.); (0., 100.); (-100., 0.); (0., -100.) |] in
  let sk id k =
    let x, y = dirs.(k) in
    edge ~length:100. (sink ~id ~name:names.(k) ~pos:(P.make x y) ~cap:10e-15)
  in
  let o = P.make 0. 0. in
  bnode ~id:1 ~pos:o (driver ())
    [ edge ~length:0.
        (mnode ~id:2 ~pos:o
           [ edge ~length:0. (mnode ~id:3 ~pos:o [ sk 4 0; sk 5 1 ]);
             edge ~length:0. (mnode ~id:6 ~pos:o [ sk 7 2; sk 8 3 ]) ]) ]

(* A small, well-formed, canonically numbered tree. *)
let good_tree () =
  let s1 = sink ~id:3 ~name:"a" ~pos:(P.make 100. 0.) ~cap:10e-15 in
  let s2 = sink ~id:4 ~name:"b" ~pos:(P.make 0. 100.) ~cap:10e-15 in
  let m =
    mnode ~id:2 ~pos:(P.make 0. 0.)
      [ edge ~length:100. s1; edge ~length:100. s2 ]
  in
  bnode ~id:1 ~pos:(P.make 0. 0.) (driver ()) [ edge ~length:0. m ]

let has pred vs = List.exists pred vs

let names vs = String.concat "; " (List.map Ctree_check.to_string vs)

let check_clean what vs =
  if vs <> [] then Alcotest.failf "%s: unexpected violations: %s" what (names vs)

(* ------------------------- structure ------------------------------- *)

let test_good_tree () =
  check_clean "structure" (Ctree_check.structure (good_tree ()));
  check_clean "verify" (Ctree_check.verify (env ()) (good_tree ()))

let test_duplicate_id () =
  let s = sink ~id:3 ~name:"a" ~pos:(P.make 100. 0.) ~cap:10e-15 in
  let m = mnode ~id:2 ~pos:(P.make 0. 0.) [ edge ~length:100. s; edge ~length:100. s ] in
  let t = bnode ~id:1 ~pos:(P.make 0. 0.) (driver ()) [ edge ~length:0. m ] in
  Alcotest.(check bool) "duplicate id caught" true
    (has (function Ctree_check.Duplicate_id { id = 3 } -> true | _ -> false)
       (Ctree_check.structure t))

let test_non_canonical_ids () =
  let t = good_tree () in
  let t' =
    (* Renumber sink "a" from 3 to 9: ids stay unique but break the
       preorder numbering contract. *)
    let rec bump (n : C.t) =
      let n = if n.C.id = 3 then { n with C.id = 9 } else n in
      { n with C.children = List.map (fun e -> { e with C.child = bump e.C.child }) n.C.children }
    in
    bump t
  in
  Alcotest.(check bool) "non-canonical id caught" true
    (has
       (function
         | Ctree_check.Non_canonical_id { expected = 3; got = 9 } -> true
         | _ -> false)
       (Ctree_check.structure t'));
  check_clean "unique ids pass with canonical_ids:false"
    (Ctree_check.structure ~canonical_ids:false t')

let test_sink_not_leaf () =
  let inner = sink ~id:3 ~name:"in" ~pos:(P.make 50. 0.) ~cap:5e-15 in
  let s =
    { (sink ~id:2 ~name:"out" ~pos:(P.make 0. 0.) ~cap:5e-15) with
      C.children = [ edge ~length:50. inner ] }
  in
  let t = bnode ~id:1 ~pos:(P.make 0. 0.) (driver ()) [ edge ~length:0. s ] in
  Alcotest.(check bool) "sink with children caught" true
    (has
       (function Ctree_check.Sink_not_leaf { id = 2; _ } -> true | _ -> false)
       (Ctree_check.structure t))

let test_overfull_and_childless () =
  let mk i x = sink ~id:i ~name:(string_of_int i) ~pos:(P.make x 0.) ~cap:5e-15 in
  let m3 =
    mnode ~id:2 ~pos:(P.make 0. 0.)
      [ edge ~length:10. (mk 3 10.); edge ~length:20. (mk 4 20.);
        edge ~length:30. (mk 5 30.) ]
  in
  let t = bnode ~id:1 ~pos:(P.make 0. 0.) (driver ()) [ edge ~length:0. m3 ] in
  Alcotest.(check bool) "arity 3 caught" true
    (has
       (function
         | Ctree_check.Overfull_node { id = 2; children = 3 } -> true
         | _ -> false)
       (Ctree_check.structure t));
  let hollow = mnode ~id:2 ~pos:(P.make 0. 0.) [] in
  let t2 = bnode ~id:1 ~pos:(P.make 0. 0.) (driver ()) [ edge ~length:0. hollow ] in
  Alcotest.(check bool) "childless internal caught" true
    (has
       (function Ctree_check.Childless_internal { id = 2 } -> true | _ -> false)
       (Ctree_check.structure t2))

let test_short_edge () =
  let s = sink ~id:3 ~name:"a" ~pos:(P.make 100. 0.) ~cap:10e-15 in
  let m = mnode ~id:2 ~pos:(P.make 0. 0.) [ edge ~length:10. s ] in
  let t = bnode ~id:1 ~pos:(P.make 0. 0.) (driver ()) [ edge ~length:0. m ] in
  Alcotest.(check bool) "negative snaking slack caught" true
    (has
       (function
         | Ctree_check.Short_edge { parent = 2; child = 3; _ } -> true
         | _ -> false)
       (Ctree_check.structure t));
  (* Snaked (longer-than-Manhattan) wire is legitimate. *)
  let ok = mnode ~id:2 ~pos:(P.make 0. 0.) [ edge ~length:150. s ] in
  let t2 = bnode ~id:1 ~pos:(P.make 0. 0.) (driver ()) [ edge ~length:0. ok ] in
  check_clean "snaking slack >= 0 passes" (Ctree_check.structure t2)

(* --------------------------- timing -------------------------------- *)

let test_root_not_buffer () =
  let s1 = sink ~id:2 ~name:"a" ~pos:(P.make 100. 0.) ~cap:10e-15 in
  let t = mnode ~id:1 ~pos:(P.make 0. 0.) [ edge ~length:100. s1 ] in
  Alcotest.(check bool) "merge root rejected by default" true
    (has
       (function Ctree_check.Root_not_buffer { id = 1 } -> true | _ -> false)
       (Ctree_check.verify (env ()) t));
  Alcotest.(check bool) "allowed for partial trees" false
    (has
       (function Ctree_check.Root_not_buffer _ -> true | _ -> false)
       (Ctree_check.verify ~require_root_buffer:false (env ()) t))

let test_stage_slew () =
  let strict = { (env ()) with Ctree_check.slew_limit = 1e-15 } in
  Alcotest.(check bool) "absurd slew limit trips the stage check" true
    (has
       (function Ctree_check.Stage_slew _ -> true | _ -> false)
       (fst (Ctree_check.timing strict (good_tree ()))))

let test_buffer_input_slew () =
  let narrow = { (env ()) with Ctree_check.slew_range = (0., 1e-15) } in
  Alcotest.(check bool) "out-of-range buffer input slew caught" true
    (has
       (function Ctree_check.Buffer_input_slew { id = 1; _ } -> true | _ -> false)
       (fst (Ctree_check.timing narrow (good_tree ()))))

let test_latency_reference () =
  let e = env () in
  let _, lats = Ctree_check.timing e (good_tree ()) in
  check_clean "latencies match themselves"
    (Ctree_check.verify ~expected_latencies:lats e (good_tree ()));
  let skewed = List.map (fun (n, d) -> (n, d +. 5e-12)) lats in
  Alcotest.(check bool) "perturbed reference caught" true
    (has
       (function Ctree_check.Latency_mismatch { sink = "a"; _ } -> true | _ -> false)
       (Ctree_check.verify ~expected_latencies:skewed e (good_tree ())));
  let extra = ("ghost", 1e-10) :: lats in
  Alcotest.(check bool) "reference sink absent from tree caught" true
    (has
       (function Ctree_check.Missing_sink { sink = "ghost" } -> true | _ -> false)
       (Ctree_check.verify ~expected_latencies:extra e (good_tree ())));
  let d name = List.assoc name lats in
  let violations expected = Ctree_check.verify ~expected_latencies:expected e (good_tree ()) in
  Alcotest.(check bool) "a duplicate reference name is checked against the tree's sink"
    true
    (violations [ ("a", d "a"); ("b", d "b"); ("a", d "a" +. 5e-12) ]
    = [ Ctree_check.Latency_mismatch
          { sink = "a"; got = d "a"; expected = d "a" +. 5e-12; tol = 1e-12 } ]);
  Alcotest.(check bool) "a tree sink missing from the reference is caught" true
    (violations [ ("a", d "a") ] = [ Ctree_check.Missing_sink { sink = "b" } ]);
  Alcotest.(check bool) "reference-side and tree-side misses keep their order" true
    (violations [ ("x", 0.); ("a", d "a"); ("y", 0.) ]
    = Ctree_check.
        [ Missing_sink { sink = "x" }; Missing_sink { sink = "y" };
          Missing_sink { sink = "b" } ]);
  (* Two tree sinks named "a": the first in preorder is the one
     compared, as a list scan found it. *)
  let twin = quad_tree [| "a"; "b"; "a"; "b" |] in
  let _, twin_lats = Ctree_check.timing e twin in
  let first = List.assoc "a" twin_lats in
  Alcotest.(check bool) "duplicate tree names: the first binding wins" true
    (Ctree_check.verify ~expected_latencies:[ ("a", first); ("b", List.assoc "b" twin_lats) ] e twin
    = Ctree_check.verify e twin)

(* The latency section as a list scan per sink: the reference for the
   hash-table version. *)
let list_latency_section ~tol latencies expected =
  let v = ref [] in
  List.iter
    (fun (sink, e) ->
      match List.assoc_opt sink latencies with
      | None -> v := Ctree_check.Missing_sink { sink } :: !v
      | Some got ->
          if Float.abs (got -. e) > tol then
            v := Ctree_check.Latency_mismatch { sink; got; expected = e; tol } :: !v)
    expected;
  List.iter
    (fun (sink, _) ->
      if not (List.mem_assoc sink expected) then v := Ctree_check.Missing_sink { sink } :: !v)
    latencies;
  List.rev !v

(* Random sink names from a pool of four (so trees and references hold
   duplicates), references that drop, repeat, perturb and invent names,
   in any order: the violations equal the list scan's, in order. *)
let qcheck_latency_section_matches_list =
  QCheck.Test.make ~count:200 ~name:"latency cross-check = the list-scan version"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let name () = [| "a"; "b"; "c"; "d" |].(Util.Rng.int rng 4) in
      let tree = quad_tree (Array.init 4 (fun _ -> name ())) in
      let e = env () in
      let _, lats = Ctree_check.timing e tree in
      let base = Ctree_check.verify e tree in
      let expected =
        List.concat_map
          (fun (n, d) ->
            match Util.Rng.int rng 5 with
            | 0 -> []
            | 1 -> [ (n, d); (n, d +. 3e-12) ]
            | 2 -> [ (n, d +. 0.5e-12) ]
            | 3 -> [ (name (), d) ]
            | _ -> [ (n, d) ])
          lats
        @ List.init (Util.Rng.int rng 3) (fun i -> (Printf.sprintf "ghost%d" i, 1e-10))
      in
      let expected =
        if Util.Rng.bool rng then List.rev expected else expected
      in
      Ctree_check.verify ~expected_latencies:expected e tree
      = base @ list_latency_section ~tol:1e-12 lats expected)

(* -------------------- synthesized trees verify --------------------- *)

let test_synthesis_verifies () =
  let specs = T_env.random_sinks ~seed:41 ~n:24 ~die:3000. () in
  let res = Cts.synthesize ~check:true (dl ()) specs in
  check_clean "synthesize ~check:true output" (Cts.verify_tree (dl ()) (cfg ()) res.Cts.tree)

let test_bisection_verifies () =
  let specs = T_env.random_sinks ~seed:42 ~n:17 ~die:2500. () in
  let res = Cts.synthesize_bisection ~check:true (dl ()) specs in
  check_clean "synthesize_bisection ~check:true output"
    (Cts.verify_tree (dl ()) (cfg ()) res.Cts.tree)

(* One full synthesis per benchmark file format: write, re-parse,
   synthesize with per-level checking on, verify the result. *)
let test_gsrc_roundtrip_verifies () =
  let d = Bmark.Synthetic.scaled (Bmark.Synthetic.find "r1") 0.02 in
  let sinks = Bmark.Synthetic.sinks d in
  let file = Filename.temp_file "cts_check_gsrc" ".bst" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Bmark.Gsrc_format.write_file
        ~unit_res:T_env.tech.Circuit.Tech.unit_res
        ~unit_cap:T_env.tech.Circuit.Tech.unit_cap sinks file;
      let parsed, _ = Bmark.Gsrc_format.parse_file file in
      let res = Cts.synthesize ~check:true (dl ()) parsed in
      check_clean "GSRC synthesis" (Cts.verify_tree (dl ()) (cfg ()) res.Cts.tree))

let test_ispd_roundtrip_verifies () =
  let d = Bmark.Synthetic.scaled (Bmark.Synthetic.find "f11") 0.02 in
  let sinks = Bmark.Synthetic.sinks d in
  let file = Filename.temp_file "cts_check_ispd" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Bmark.Ispd_format.write_file
        (Bmark.Ispd_format.make ~slew_limit:100e-12 sinks)
        file;
      let parsed = (Bmark.Ispd_format.parse_file file).Bmark.Ispd_format.sinks in
      let res = Cts.synthesize ~check:true (dl ()) parsed in
      check_clean "ISPD synthesis" (Cts.verify_tree (dl ()) (cfg ()) res.Cts.tree))

let qcheck_synthesized_trees_verify =
  QCheck.Test.make ~name:"every synthesized tree passes Ctree_check.verify"
    ~count:12
    QCheck.(pair (int_range 2 28) (int_range 0 1000))
    (fun (n, seed) ->
      let specs = T_env.random_sinks ~seed ~n ~die:3000. () in
      let res = Cts.synthesize ~check:true (dl ()) specs in
      Cts.verify_tree (dl ()) (cfg ()) res.Cts.tree = [])

(* Near-tie H-structure regression: four sinks in a perfect square give
   mathematically identical pairing costs for the original and swapped
   groupings — ulp noise must not be mistaken for an improvement, so no
   flip may be recorded. *)
let test_hstructure_near_tie () =
  let square name x y = { Sinks.name; pos = P.make x y; cap = 10e-15 } in
  (* Decimal coordinates: binary-inexact, so the symmetric pairing
     costs are equal only up to rounding — exactly the trap. *)
  let specs =
    [ square "s00" 0.1 0.1; square "s01" 0.1 900.3;
      square "s10" 900.3 0.1; square "s11" 900.3 900.3 ]
  in
  List.iter
    (fun h ->
      let config = Cts_config.with_hstructure (cfg ()) h in
      let res = Cts.synthesize ~config ~check:true (dl ()) specs in
      Alcotest.(check int) "no flip on a symmetric square" 0 res.Cts.flippings)
    [ Cts_config.H_reestimate; Cts_config.H_correct ]

let suite =
  [
    Alcotest.test_case "well-formed tree verifies clean" `Quick test_good_tree;
    Alcotest.test_case "duplicate id" `Quick test_duplicate_id;
    Alcotest.test_case "non-canonical preorder ids" `Quick
      test_non_canonical_ids;
    Alcotest.test_case "sink with children" `Quick test_sink_not_leaf;
    Alcotest.test_case "overfull and childless internals" `Quick
      test_overfull_and_childless;
    Alcotest.test_case "negative snaking slack" `Quick test_short_edge;
    Alcotest.test_case "root must be the source driver" `Quick
      test_root_not_buffer;
    Alcotest.test_case "stage slew limit" `Quick test_stage_slew;
    Alcotest.test_case "buffer input-slew range" `Quick test_buffer_input_slew;
    Alcotest.test_case "sink latency reference comparison" `Quick
      test_latency_reference;
    Alcotest.test_case "random synthesis verifies (level checks on)" `Slow
      test_synthesis_verifies;
    Alcotest.test_case "bisection synthesis verifies" `Slow
      test_bisection_verifies;
    Alcotest.test_case "GSRC round-trip synthesis verifies" `Slow
      test_gsrc_roundtrip_verifies;
    Alcotest.test_case "ISPD round-trip synthesis verifies" `Slow
      test_ispd_roundtrip_verifies;
    QCheck_alcotest.to_alcotest qcheck_latency_section_matches_list;
    QCheck_alcotest.to_alcotest qcheck_synthesized_trees_verify;
    Alcotest.test_case "H-structure near-tie records no flip" `Quick
      test_hstructure_near_tie;
  ]
