(* Tests for the aggressive buffered CTS core: run analysis, paths, maze
   routing, merge-routing, timing analysis, and full synthesis. *)

module P = Geometry.Point
module B = Circuit.Buffer_lib

let tech = T_env.tech
let check_f eps = Alcotest.(check (float eps))
let dl () = T_env.get_dl ()
let cfg () = Cts_config.default (dl ())

(* ---------------- Lpath ---------------- *)

let lpath_basics () =
  let p = Lpath.make (P.make 0. 0.) (P.make 30. 40.) in
  check_f 1e-12 "length" 70. (Lpath.length p);
  Alcotest.(check bool) "start" true (P.equal (Lpath.point_at p 0.) (P.make 0. 0.));
  Alcotest.(check bool) "on horizontal leg" true
    (P.equal (Lpath.point_at p 20.) (P.make 20. 0.));
  Alcotest.(check bool) "on vertical leg" true
    (P.equal (Lpath.point_at p 50.) (P.make 30. 20.));
  Alcotest.(check bool) "end" true
    (P.equal (Lpath.point_at p 70.) (P.make 30. 40.));
  Alcotest.(check bool) "clamped" true
    (P.equal (Lpath.point_at p 999.) (P.make 30. 40.))

let lpath_distance_consistent () =
  let a = P.make 10. 20. and b = P.make (-50.) 5. in
  let p = Lpath.make a b in
  List.iter
    (fun d ->
      let q = Lpath.point_at p d in
      check_f 1e-9 "distance along path" d (P.manhattan a q))
    [ 0.; 13.; 42.; 60. ]

(* ---------------- Run ---------------- *)

let span_ordering () =
  let dl = dl () and cfg = cfg () in
  let s b = Run.span dl cfg ~drive:b ~load_cap:0.75e-15 in
  Alcotest.(check bool) "span grows with drive" true
    (s T_env.b10 < s T_env.b20 && s T_env.b20 < s T_env.b30)

let run_short_needs_no_buffer () =
  let dl = dl () and cfg = cfg () in
  let port = Port.of_sink (List.hd (T_env.random_sinks ~seed:21 ~n:1 ~die:10. ())) in
  let e = Run.eval dl cfg port 100. in
  Alcotest.(check int) "no buffers" 0 (List.length e.Run.buffers);
  Alcotest.(check bool) "feasible" true e.Run.feasible;
  check_f 1e-9 "top free is whole run" 100. e.Run.top_free

let run_long_inserts_buffers () =
  let dl = dl () and cfg = cfg () in
  let port = Port.of_sink (List.hd (T_env.random_sinks ~seed:22 ~n:1 ~die:10. ())) in
  let e = Run.eval dl cfg port 3000. in
  Alcotest.(check bool) "buffers inserted" true (List.length e.Run.buffers >= 3);
  Alcotest.(check bool) "feasible" true e.Run.feasible;
  (* Buffer positions are ordered and within the run. *)
  let rec ordered = function
    | a :: (b :: _ as rest) -> a.Run.dist < b.Run.dist && ordered rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "ordered positions" true (ordered e.Run.buffers);
  List.iter
    (fun p ->
      if p.Run.dist < 0. || p.Run.dist > 3000. then
        Alcotest.fail "buffer outside run")
    e.Run.buffers;
  (* Every unbuffered span respects the slew-target span of its driver. *)
  let positions = List.map (fun p -> p.Run.dist) e.Run.buffers in
  let spans =
    List.map2 (fun a b -> b -. a)
      (0. :: List.rev (List.tl (List.rev positions)))
      positions
  in
  List.iter2
    (fun span (p : Run.placed) ->
      let max_span = Run.span dl cfg ~drive:p.Run.buf ~load_cap:0.75e-15 in
      if span > max_span +. 1. then
        Alcotest.failf "span %.0f exceeds %s max %.0f" span
          p.Run.buf.B.name max_span)
    spans e.Run.buffers

let run_delay_monotone_in_length () =
  let dl = dl () and cfg = cfg () in
  let port = Port.of_sink (List.hd (T_env.random_sinks ~seed:23 ~n:1 ~die:10. ())) in
  let d len =
    let e = Run.eval dl cfg port len in
    Maze.side_delay dl cfg e e.Run.top_free
  in
  Alcotest.(check bool) "monotone" true (d 200. < d 1000. && d 1000. < d 2500.)

let choose_buffer_prefers_small_on_tie () =
  let dl = dl () and cfg = cfg () in
  (* With a huge tie window every type qualifies: smallest wins. *)
  let cfg_loose = { cfg with Cts_config.prefer_small_within = 1e9 } in
  let b, _ = Run.choose_buffer dl cfg_loose ~stub_len:0. ~load_cap:1e-15 in
  Alcotest.(check string) "smallest" "BUF10X" b.B.name;
  (* With a zero window the longest-span type wins. *)
  let cfg_tight = { cfg with Cts_config.prefer_small_within = 0. } in
  let b2, _ = Run.choose_buffer dl cfg_tight ~stub_len:0. ~load_cap:1e-15 in
  Alcotest.(check string) "max span" "BUF30X" b2.B.name

(* ---------------- Maze ---------------- *)

let maze_balanced_pair_meets_middle () =
  let dl = dl () and cfg = cfg () in
  let mk name x =
    Port.of_sink { Sinks.name; pos = P.make x 0.; cap = 10e-15 }
  in
  let c = Maze.select dl cfg (mk "a" 0.) (mk "b" 1000.) in
  (* Identical subtrees: the merge bin sits near the geometric middle. *)
  Alcotest.(check bool) "near middle" true
    (Float.abs (c.Maze.d1 -. c.Maze.d2) < 150.);
  Alcotest.(check bool) "near-direct" true (c.Maze.d1 +. c.Maze.d2 < 1100.);
  Alcotest.(check bool) "small est skew" true (c.Maze.est_skew < 2e-12)

let maze_unbalanced_pair_shifts () =
  let dl = dl () and cfg = cfg () in
  let slow =
    { (Port.of_sink { Sinks.name = "s"; pos = P.make 0. 0.; cap = 10e-15 })
      with Port.delay = 60e-12 }
  in
  let fast = Port.of_sink { Sinks.name = "f"; pos = P.make 1200. 0.; cap = 10e-15 } in
  let c = Maze.select dl cfg slow fast in
  (* The merge point moves toward the slow subtree. *)
  Alcotest.(check bool) "bin closer to slow side" true (c.Maze.d1 < c.Maze.d2)

let maze_grid_refines_for_long_nets () =
  Alcotest.(check int) "short net default bins" 45 (Maze.bins_for 500.);
  Alcotest.(check bool) "long net more bins" true (Maze.bins_for 9000. > 45)

(* ---------------- Merge_routing ---------------- *)

let merge_of_two_sinks () =
  let dl = dl () and cfg = cfg () in
  let p1 = Port.of_sink { Sinks.name = "m1"; pos = P.make 0. 0.; cap = 10e-15 } in
  let p2 = Port.of_sink { Sinks.name = "m2"; pos = P.make 800. 600.; cap = 20e-15 } in
  let port, stats = Merge_routing.merge dl cfg p1 p2 in
  Alcotest.(check int) "sink count" 2 port.Port.n_sinks;
  Alcotest.(check bool) "residual small" true
    (stats.Merge_routing.residual < 1e-12);
  Alcotest.(check (list string)) "valid subtree" []
    (Ctree.validate port.Port.node);
  Alcotest.(check int) "both sinks reachable" 2
    (List.length (Ctree.sinks port.Port.node))

let merge_balances_unequal_depths () =
  let dl = dl () and cfg = cfg () in
  (* A genuinely deep subtree (two distant sinks already merged) against a
     fresh nearby sink: the balance machinery must absorb the delay
     difference without blowing up the skew estimate. *)
  let s1 = Port.of_sink { Sinks.name = "d1"; pos = P.make 0. 0.; cap = 10e-15 } in
  let s2 = Port.of_sink { Sinks.name = "d2"; pos = P.make 2400. 0.; cap = 10e-15 } in
  let slow, _ = Merge_routing.merge dl cfg s1 s2 in
  let fast =
    Port.of_sink { Sinks.name = "fa"; pos = P.make 1200. 500.; cap = 10e-15 }
  in
  Alcotest.(check bool) "depth creates delay gap" true
    (slow.Port.delay -. fast.Port.delay > 20e-12);
  let port, _stats = Merge_routing.merge dl cfg slow fast in
  Alcotest.(check bool) "delay covers slow side" true
    (port.Port.delay >= slow.Port.delay -. 1e-12);
  Alcotest.(check bool) "skew estimate bounded" true
    (port.Port.skew_est < 25e-12)

let merge_respects_stub_guard () =
  let dl = dl () and cfg = cfg () in
  (* Two 20 fF sinks 100 um apart: the merge node's stub load passes
     the guard's 30 fF. *)
  let p1 = Port.of_sink { Sinks.name = "g1"; pos = P.make 0. 0.; cap = 20e-15 } in
  let p2 = Port.of_sink { Sinks.name = "g2"; pos = P.make 100. 0.; cap = 20e-15 } in
  let port, _ = Merge_routing.merge dl cfg p1 p2 in
  (* Stub guard fired: the merged port is buffered. *)
  match port.Port.node.Ctree.kind with
  | Ctree.Buf _ -> check_f 1e-12 "stub reset" 0. port.Port.stub_len
  | Ctree.Merge | Ctree.Sink _ -> Alcotest.fail "expected buffer at merge node"

let balance_capacity_positive () =
  let dl = dl () and cfg = cfg () in
  let p = Port.of_sink { Sinks.name = "bc"; pos = P.make 0. 0.; cap = 10e-15 } in
  Alcotest.(check bool) "capacity grows with distance" true
    (Merge_routing.balance_capacity dl cfg p 2000.
    > Merge_routing.balance_capacity dl cfg p 500.)

(* ---------------- Timing ---------------- *)

let timing_matches_simulator () =
  let dl = dl () and cfg = cfg () in
  let specs = T_env.random_sinks ~seed:31 ~n:24 ~die:2500. () in
  let res = Cts.synthesize dl specs in
  let rep = Timing.analyze_tree dl cfg res.Cts.tree in
  let sim = Ctree_sim.simulate tech res.Cts.tree in
  (* The library-based engine should predict latency within ~12% and skew
     within ~20 ps of the transient simulator. *)
  let rel_err =
    Float.abs (rep.Timing.max_delay -. sim.Ctree_sim.latency)
    /. sim.Ctree_sim.latency
  in
  if rel_err > 0.12 then Alcotest.failf "latency error %.1f%%" (rel_err *. 100.);
  if Float.abs (Timing.skew rep -. sim.Ctree_sim.skew) > 20e-12 then
    Alcotest.failf "skew mismatch: est %.1fps sim %.1fps"
      (Timing.skew rep *. 1e12)
      (sim.Ctree_sim.skew *. 1e12)

let timing_rejects_sink_region () =
  let dl = dl () and cfg = cfg () in
  let s = Ctree.sink ~name:"x" ~pos:P.origin ~cap:1e-15 in
  Alcotest.check_raises "sink region"
    (Invalid_argument "Timing.analyze_driven: sink region") (fun () ->
      ignore
        (Timing.analyze_driven dl cfg ~drive:T_env.b20 ~input_slew:80e-12 s))

let timing_stage_slew_branch_aware () =
  let dl = dl () in
  (* A fat two-branch stub must report a worse slew than a single wire of
     the max branch length. *)
  let mk name x = Ctree.sink ~name ~pos:(P.make x 0.) ~cap:15e-15 in
  let branchy =
    Ctree.merge ~pos:P.origin
      [ Ctree.edge ~length:280. (mk "bl" (-280.));
        Ctree.edge ~length:280. (mk "br" 280.) ]
  in
  let single =
    Ctree.merge ~pos:P.origin [ Ctree.edge ~length:280. (mk "sg" 280.) ]
  in
  let s_branch =
    Timing.stage_worst_slew dl ~drive:T_env.b20 ~input_slew:80e-12 branchy
  in
  let s_single =
    Timing.stage_worst_slew dl ~drive:T_env.b20 ~input_slew:80e-12 single
  in
  Alcotest.(check bool) "branch worse than single" true (s_branch > s_single)

(* The binary search's side mids as they were computed before
   [Timing.side_delays]: one [analyze_driven], then each side's sinks
   picked out of its (name, delay) list by a table of side-1 names. *)
let reference_mid_diff dl cfg ~drive ~input_slew (cand : Ctree.t) =
  let v1 =
    match cand.Ctree.children with
    | e :: _ -> e.Ctree.child
    | [] -> Alcotest.fail "candidate without edges"
  in
  let side1 = Hashtbl.create 64 in
  List.iter
    (fun (s : Ctree.t) ->
      match s.Ctree.kind with
      | Ctree.Sink { name; _ } -> Hashtbl.replace side1 name ()
      | Ctree.Buf _ | Ctree.Merge -> ())
    (Ctree.sinks v1);
  let rep = Timing.analyze_driven dl cfg ~drive ~input_slew cand in
  let mid sel =
    let ds =
      List.filter_map
        (fun (name, d) -> if sel name then Some d else None)
        rep.Timing.sink_delays
    in
    match ds with
    | [] -> 0.
    | d :: rest ->
        (List.fold_left Float.max d rest +. List.fold_left Float.min d rest)
        /. 2.
  in
  mid (Hashtbl.mem side1) -. mid (fun n -> not (Hashtbl.mem side1 n))

(* Every two-edge merge of a random small synthesis, analyzed as a
   candidate merge under each buffer type, with and without useful-skew
   offsets on a random third of the sinks: [side_delays] must give the
   reference's mid difference in Int64 bits. *)
let qcheck_side_delays_match_name_table =
  QCheck.Test.make ~count:12
    ~name:"side_delays mids bit-identical to the name-table mids"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let dl = dl () in
      let rng = Util.Rng.create seed in
      let n = 3 + Util.Rng.int rng 14 in
      let specs = T_env.random_sinks ~seed ~n ~die:3000. () in
      let offsets =
        List.filter_map
          (fun (sp : Sinks.spec) ->
            if Util.Rng.int rng 3 = 0 then
              Some (sp.Sinks.name, Util.Rng.float_range rng (-30e-12) 30e-12)
            else None)
          specs
      in
      let base = cfg () in
      let with_offsets = { base with Cts_config.sink_offsets = offsets } in
      let tree = (Cts.synthesize ~config:with_offsets dl specs).Cts.tree in
      let merges = ref [] in
      Ctree.iter
        (fun (t : Ctree.t) ->
          match (t.Ctree.kind, t.Ctree.children) with
          | Ctree.Merge, [ _; _ ] -> merges := t :: !merges
          | _, _ -> ())
        tree;
      !merges <> []
      && List.for_all
           (fun cand ->
             List.for_all
               (fun (cfg, drive) ->
                 let input_slew = cfg.Cts_config.slew_target in
                 let mid = function
                   | Some (lo, hi) -> (hi +. lo) /. 2.
                   | None -> 0.
                 in
                 let s1, s2 =
                   Timing.side_delays dl cfg ~drive ~input_slew cand
                 in
                 Int64.bits_of_float (mid s1 -. mid s2)
                 = Int64.bits_of_float
                     (reference_mid_diff dl cfg ~drive ~input_slew cand))
               [
                 (base, base.Cts_config.assumed_driver);
                 (with_offsets, base.Cts_config.assumed_driver);
                 (with_offsets, T_env.b10);
                 (base, T_env.b30);
               ])
           !merges)

let side_delays_rejects_non_merge () =
  let dl = dl () and cfg = cfg () in
  let s = Ctree.sink ~name:"x" ~pos:P.origin ~cap:1e-15 in
  let one = Ctree.merge ~pos:P.origin [ Ctree.edge ~length:10. s ] in
  List.iter
    (fun region ->
      match
        Timing.side_delays dl cfg ~drive:T_env.b20 ~input_slew:80e-12 region
      with
      | _ -> Alcotest.fail "side_delays accepted a region without two edges"
      | exception Invalid_argument _ -> ())
    [ s; one ]

(* ---------------- Full synthesis ---------------- *)

let synth_meets_slew_limit () =
  let dl = dl () in
  List.iter
    (fun (seed, n, die) ->
      let specs = T_env.random_sinks ~seed ~n ~die () in
      let res = Cts.synthesize dl specs in
      Alcotest.(check (list string)) "valid" [] (Ctree.validate res.Cts.tree);
      let m = Ctree_sim.simulate tech res.Cts.tree in
      Alcotest.(check bool) "settled" true m.Ctree_sim.all_settled;
      if m.Ctree_sim.worst_slew > 100e-12 then
        Alcotest.failf "seed %d: slew %.1fps exceeds limit" seed
          (m.Ctree_sim.worst_slew *. 1e12);
      Alcotest.(check int) "all sinks" n (List.length m.Ctree_sim.sink_delays))
    [ (41, 9, 1500.); (42, 25, 4000.); (43, 40, 6000.) ]

let synth_skew_reasonable () =
  let dl = dl () in
  let specs = T_env.random_sinks ~seed:44 ~n:30 ~die:5000. () in
  let res = Cts.synthesize dl specs in
  let m = Ctree_sim.simulate tech res.Cts.tree in
  (* "Reasonable skew": well under the paper's worst reported values. *)
  if m.Ctree_sim.skew > 80e-12 then
    Alcotest.failf "skew %.1fps too large" (m.Ctree_sim.skew *. 1e12)

let synth_inserts_midpath_buffers () =
  let dl = dl () in
  (* Two far-apart sinks: classical DME could not buffer the span (no
     merge nodes along it); aggressive CTS must. *)
  let specs =
    [ { Sinks.name = "far1"; pos = P.make 0. 0.; cap = 10e-15 };
      { Sinks.name = "far2"; pos = P.make 4000. 0.; cap = 10e-15 } ]
  in
  let res = Cts.synthesize dl specs in
  Alcotest.(check bool) "mid-path buffers" true (res.Cts.inserted_buffers >= 3);
  let m = Ctree_sim.simulate tech res.Cts.tree in
  Alcotest.(check bool) "slew met" true (m.Ctree_sim.worst_slew <= 100e-12)

let synth_estimate_tracks_simulation () =
  let dl = dl () in
  let specs = T_env.random_sinks ~seed:45 ~n:20 ~die:3000. () in
  let res = Cts.synthesize dl specs in
  let m = Ctree_sim.simulate tech res.Cts.tree in
  let rel =
    Float.abs (res.Cts.est_latency -. m.Ctree_sim.latency)
    /. m.Ctree_sim.latency
  in
  if rel > 0.15 then Alcotest.failf "estimate off by %.0f%%" (rel *. 100.)

let synth_single_sink () =
  let dl = dl () in
  let specs = [ { Sinks.name = "only"; pos = P.make 10. 10.; cap = 5e-15 } ] in
  let res = Cts.synthesize dl specs in
  Alcotest.(check int) "one sink" 1 (List.length (Ctree.sinks res.Cts.tree));
  match res.Cts.tree.Ctree.kind with
  | Ctree.Buf _ -> ()
  | Ctree.Merge | Ctree.Sink _ -> Alcotest.fail "root driver expected"

let synth_rejects_invalid () =
  let dl = dl () in
  Alcotest.(check bool) "empty rejected" true
    (try ignore (Cts.synthesize dl []); false
     with Invalid_argument _ -> true)

let synth_deterministic () =
  let dl = dl () in
  let specs = T_env.random_sinks ~seed:46 ~n:15 ~die:2000. () in
  let r1 = Cts.synthesize dl specs and r2 = Cts.synthesize dl specs in
  check_f 1e-18 "same latency" r1.Cts.est_latency r2.Cts.est_latency;
  Alcotest.(check int) "same buffers" (Ctree.n_buffers r1.Cts.tree)
    (Ctree.n_buffers r2.Cts.tree);
  check_f 1e-9 "same wirelength"
    (Ctree.total_wirelength r1.Cts.tree)
    (Ctree.total_wirelength r2.Cts.tree)

(* ---------------- H-structure ---------------- *)

let hstructure_runs_and_counts () =
  let dl = dl () in
  let specs = T_env.random_sinks ~seed:47 ~n:24 ~die:4000. () in
  let run mode =
    let config = Cts_config.with_hstructure (Cts_config.default dl) mode in
    Cts.synthesize ~config dl specs
  in
  let r_none = run Cts_config.H_none in
  let r_re = run Cts_config.H_reestimate in
  let r_corr = run Cts_config.H_correct in
  Alcotest.(check int) "no flips without correction" 0 r_none.Cts.flippings;
  Alcotest.(check bool) "correction explores flips" true
    (r_corr.Cts.flippings >= 0 && r_re.Cts.flippings >= 0);
  (* All three trees remain valid and complete. *)
  List.iter
    (fun r ->
      Alcotest.(check (list string)) "valid" [] (Ctree.validate r.Cts.tree);
      Alcotest.(check int) "sinks" 24 (List.length (Ctree.sinks r.Cts.tree)))
    [ r_none; r_re; r_corr ]

let hstructure_correction_slew_safe () =
  let dl = dl () in
  let specs = T_env.random_sinks ~seed:48 ~n:20 ~die:3500. () in
  let config =
    Cts_config.with_hstructure (Cts_config.default dl) Cts_config.H_correct
  in
  let res = Cts.synthesize ~config dl specs in
  let m = Ctree_sim.simulate tech res.Cts.tree in
  Alcotest.(check bool) "slew met under correction" true
    (m.Ctree_sim.worst_slew <= 100e-12)

(* ---------------- Ablations ---------------- *)

let ablation_flags_change_behavior () =
  let dl = dl () in
  let specs = T_env.random_sinks ~seed:49 ~n:20 ~die:4000. () in
  let base = Cts_config.default dl in
  let r_full = Cts.synthesize ~config:base dl specs in
  let r_nobal =
    Cts.synthesize ~config:{ base with Cts_config.enable_balance = false } dl specs
  in
  let r_nobs =
    Cts.synthesize
      ~config:{ base with Cts_config.enable_binary_search = false }
      dl specs
  in
  Alcotest.(check bool) "all produce valid trees" true
    (List.for_all
       (fun r -> Ctree.validate r.Cts.tree = [])
       [ r_full; r_nobal; r_nobs ]);
  (* The switches actually change the construction. *)
  Alcotest.(check bool) "variants differ from full flow" true
    (r_nobs.Cts.est_skew <> r_full.Cts.est_skew
    || Ctree.total_wirelength r_nobs.Cts.tree
       <> Ctree.total_wirelength r_full.Cts.tree);
  (* Slew control is independent of the skew-balancing stages. *)
  List.iter
    (fun r ->
      let m = Ctree_sim.simulate tech r.Cts.tree in
      Alcotest.(check bool) "slew still met" true
        (m.Ctree_sim.worst_slew <= 100e-12))
    [ r_nobal; r_nobs ]

let result_statistics_coherent () =
  let dl = dl () in
  let specs = T_env.random_sinks ~seed:51 ~n:30 ~die:5000. () in
  let res = Cts.synthesize dl specs in
  (* Inserted-along-path buffers are a subset of all buffers (root driver
     and merge-node guards add more). *)
  Alcotest.(check bool) "inserted <= total buffers" true
    (res.Cts.inserted_buffers <= Ctree.n_buffers res.Cts.tree);
  Alcotest.(check bool) "snaked nonneg" true (res.Cts.snaked_wirelength >= 0.);
  (* A binary merge of n sinks needs at least ceil(log2 n) levels. *)
  let min_levels =
    int_of_float (Float.ceil (Float.log (float_of_int 30) /. Float.log 2.))
  in
  Alcotest.(check bool) "levels >= log2 n" true (res.Cts.levels >= min_levels);
  (* Wirelength at least the spanning lower bound: half-perimeter of the
     sink bounding box. *)
  Alcotest.(check bool) "wirelength above bbox bound" true
    (Ctree.total_wirelength res.Cts.tree
    >= Geometry.Bbox.half_perimeter (Sinks.bbox specs));
  (* Every sink name appears exactly once. *)
  let names =
    List.map
      (fun (s : Ctree.t) ->
        match s.Ctree.kind with
        | Ctree.Sink { name; _ } -> name
        | _ -> assert false)
      (Ctree.sinks res.Cts.tree)
  in
  Alcotest.(check int) "unique sinks" 30
    (List.length (List.sort_uniq compare names))

let maze_choice_fields_sane () =
  let dl = dl () and cfg = cfg () in
  let p1 = Port.of_sink { Sinks.name = "mc1"; pos = P.make 0. 0.; cap = 10e-15 } in
  let p2 = Port.of_sink { Sinks.name = "mc2"; pos = P.make 900. 400.; cap = 10e-15 } in
  let c = Maze.select dl cfg p1 p2 in
  Alcotest.(check bool) "est skew nonneg" true (c.Maze.est_skew >= 0.);
  Alcotest.(check bool) "distances cover direct" true
    (c.Maze.d1 +. c.Maze.d2 >= P.manhattan (Port.pos p1) (Port.pos p2) -. 1e-6)

let bisection_topology_works () =
  let dl = dl () in
  let specs = T_env.random_sinks ~seed:50 ~n:21 ~die:3000. () in
  let res = Cts.synthesize_bisection dl specs in
  Alcotest.(check (list string)) "valid" [] (Ctree.validate res.Cts.tree);
  Alcotest.(check int) "all sinks" 21 (List.length (Ctree.sinks res.Cts.tree));
  Alcotest.(check int) "no flippings on fixed topology" 0 res.Cts.flippings;
  let m = Ctree_sim.simulate tech res.Cts.tree in
  Alcotest.(check bool) "slew met" true (m.Ctree_sim.worst_slew <= 100e-12);
  Alcotest.(check bool) "skew reasonable" true (m.Ctree_sim.skew <= 90e-12);
  (* The bisection tree is balanced: depth is near log2 n (in merge
     levels; buffers inflate node depth, so compare level counts). *)
  Alcotest.(check bool) "balanced depth" true (res.Cts.levels <= 7)

let suite ~property =
  [
    Alcotest.test_case "lpath basics" `Quick lpath_basics;
    Alcotest.test_case "lpath distances" `Quick lpath_distance_consistent;
    Alcotest.test_case "span ordering" `Quick span_ordering;
    Alcotest.test_case "run: short unbuffered" `Quick run_short_needs_no_buffer;
    Alcotest.test_case "run: long buffered" `Quick run_long_inserts_buffers;
    Alcotest.test_case "run: delay monotone" `Quick run_delay_monotone_in_length;
    Alcotest.test_case "intelligent sizing policies" `Quick
      choose_buffer_prefers_small_on_tie;
    Alcotest.test_case "maze: balanced middle" `Quick
      maze_balanced_pair_meets_middle;
    Alcotest.test_case "maze: unbalanced shift" `Quick maze_unbalanced_pair_shifts;
    Alcotest.test_case "maze: dynamic grid" `Quick maze_grid_refines_for_long_nets;
    Alcotest.test_case "merge two sinks" `Quick merge_of_two_sinks;
    Alcotest.test_case "merge unequal depths" `Quick merge_balances_unequal_depths;
    Alcotest.test_case "merge stub guard" `Quick merge_respects_stub_guard;
    Alcotest.test_case "balance capacity" `Quick balance_capacity_positive;
    Alcotest.test_case "timing vs simulator" `Slow timing_matches_simulator;
    Alcotest.test_case "timing rejects sink" `Quick timing_rejects_sink_region;
    Alcotest.test_case "timing branch-aware slew" `Quick
      timing_stage_slew_branch_aware;
    Alcotest.test_case "side delays reject non-merge" `Quick
      side_delays_rejects_non_merge;
    property qcheck_side_delays_match_name_table;
    Alcotest.test_case "synthesis meets slew limit" `Slow synth_meets_slew_limit;
    Alcotest.test_case "synthesis skew reasonable" `Slow synth_skew_reasonable;
    Alcotest.test_case "mid-path buffer insertion" `Quick
      synth_inserts_midpath_buffers;
    Alcotest.test_case "estimate tracks simulation" `Slow
      synth_estimate_tracks_simulation;
    Alcotest.test_case "single sink" `Quick synth_single_sink;
    Alcotest.test_case "rejects invalid input" `Quick synth_rejects_invalid;
    Alcotest.test_case "deterministic" `Quick synth_deterministic;
    Alcotest.test_case "h-structure modes" `Slow hstructure_runs_and_counts;
    Alcotest.test_case "h-structure slew safe" `Slow
      hstructure_correction_slew_safe;
    Alcotest.test_case "ablation flags" `Slow ablation_flags_change_behavior;
    Alcotest.test_case "bisection topology" `Slow bisection_topology_works;
    Alcotest.test_case "result statistics" `Slow result_statistics_coherent;
    Alcotest.test_case "maze choice fields" `Quick maze_choice_fields_sane;
  ]
