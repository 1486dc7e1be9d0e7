(* The observability layer (lib/obs) and the hot-path bugfix it
   instruments: the placer's no-legal-position fallback. Plus the
   determinism contract: counter snapshots are identical at any pool
   size and after any earlier synthesis in the process, and an enabled
   layer never perturbs the synthesized tree. And the span table that
   the span counters count: it agrees with the direct computation. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  nn = 0 || at 0

let test_config_validation () =
  let dl = T_env.get_dl () in
  let cfg = Cts_config.default dl in
  Alcotest.(check (list string)) "default config is valid" []
    (Cts_config.validate cfg);
  let bad = { cfg with Cts_config.dp_grid = 1 } in
  checkb "a one-slot DP grid is reported" true (Cts_config.validate bad <> []);
  let specs = T_env.random_sinks ~seed:7 ~n:6 ~die:2000. () in
  (match Cts.synthesize ~config:bad dl specs with
  | _ -> Alcotest.fail "synthesize accepted an invalid config"
  | exception Invalid_argument msg ->
      checkb "the rejection names the offending field" true
        (contains msg "dp_grid"));
  (* NaN and +-inf pass every ordering test; each float field and each
     sink offset must still be rejected, by name. *)
  let set name v =
    match name with
    | "slew_limit" -> { cfg with Cts_config.slew_limit = v }
    | "slew_target" -> { cfg with Cts_config.slew_target = v }
    | "topology_beta" -> { cfg with Cts_config.topology_beta = v }
    | "prefer_small_within" -> { cfg with Cts_config.prefer_small_within = v }
    | "dp_area_weight" -> { cfg with Cts_config.dp_area_weight = v }
    | _ -> { cfg with Cts_config.sink_offsets = [ ("s0", 1e-12); (name, v) ] }
  in
  List.iter
    (fun name ->
      List.iter
        (fun v ->
          let errs = Cts_config.validate (set name v) in
          checkb
            (Printf.sprintf "%s = %g is reported by name" name v)
            true
            (List.exists (fun m -> contains m name) errs))
        [ Float.nan; Float.infinity; Float.neg_infinity ])
    [
      "slew_limit"; "slew_target"; "topology_beta"; "prefer_small_within";
      "dp_area_weight"; "sink_z9";
    ];
  (* A negative Eq. 4.1 weight rewards delay imbalance, and the pairing
     sweep's bound needs beta >= 0. *)
  checkb "a negative topology_beta is reported by name" true
    (List.exists
       (fun m -> contains m "topology_beta must be non-negative")
       (Cts_config.validate (set "topology_beta" (-1.))));
  checkb "a zero topology_beta is valid" true
    (Cts_config.validate (set "topology_beta" 0.) = []);
  (* Below zero no buffer counts as within it of the best span, and the
     sizing rule has nothing to choose from. *)
  checkb "a negative prefer_small_within is reported by name" true
    (List.exists
       (fun m -> contains m "prefer_small_within must be non-negative")
       (Cts_config.validate (set "prefer_small_within" (-1.))));
  checkb "a zero prefer_small_within is valid" true
    (Cts_config.validate (set "prefer_small_within" 0.) = []);
  match Cts.synthesize ~config:(set "slew_limit" Float.nan) dl specs with
  | _ -> Alcotest.fail "synthesize accepted a NaN slew limit"
  | exception Invalid_argument msg ->
      checkb "a NaN slew limit is rejected by name" true
        (contains msg "slew_limit must be finite")

(* ------------------- placer infeasibility fallback ----------------- *)

let test_placer_infeasible () =
  let path =
    Lpath.make { Geometry.Point.x = 0.; y = 0. }
      { Geometry.Point.x = 1000.; y = 0. }
  in
  (* Blockage covering the path from 390 um through past its end: no
     legal position remains at or beyond the ideal spot, and sliding
     down gains no ground over cur. The old fallback returned
     length +. 1., which clamped to the path end — inside the macro. *)
  let wall = [ Geometry.Bbox.make 390. (-50.) 1100. 50. ] in
  (match Merge_routing.placer wall path ~cur:398. 600. with
  | None -> ()
  | Some d -> Alcotest.failf "expected infeasible, got a position at %.1f" d);
  (* A finite macro is escapable: the result must be a legal point. *)
  let macro = [ Geometry.Bbox.make 390. (-50.) 500. 50. ] in
  match Merge_routing.placer macro path ~cur:0. 450. with
  | Some d ->
      checkb "legalized position is blockage-free" true
        (Blockage.legal macro (Lpath.point_at path d))
  | None -> Alcotest.fail "escapable macro reported infeasible"

(* ----------------------- counter store basics ---------------------- *)

let with_obs f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

let test_obs_enable_disable () =
  Obs.set_enabled false;
  Obs.reset ();
  Obs.incr Obs.Maze_selects;
  with_obs (fun () ->
      checki "disabled increments are dropped" 0 (Obs.read Obs.Maze_selects);
      Obs.incr ~n:3 Obs.Maze_selects;
      checki "enabled increments land" 3 (Obs.read Obs.Maze_selects);
      Obs.hist_add Obs.Buffers_per_level ~bucket:2 5;
      let snap = Obs.snapshot () in
      checkb "histogram bucket recorded" true
        (List.assoc "buffers_per_level" snap.Obs.histograms = [ (2, 5) ]);
      Obs.reset ();
      checki "reset clears counters" 0 (Obs.read Obs.Maze_selects))

let test_phase_and_trace () =
  with_obs (fun () ->
      let v =
        Obs.phase "unit-test" (fun () ->
            Obs.incr Obs.Maze_selects;
            41 + 1)
      in
      checki "phase returns the body's value" 42 v;
      let snap = Obs.snapshot () in
      checkb "span recorded" true
        (List.exists
           (fun (s : Obs.span) -> s.Obs.span_name = "unit-test")
           snap.Obs.spans);
      checkb "summary names the counters" true
        (contains (Obs.summary snap) "maze.selects");
      match Obs.validate_trace (Obs.trace_json snap) with
      | Ok n -> checkb "span + counter events present" true (n >= 2)
      | Error e -> Alcotest.fail ("self-produced trace rejected: " ^ e))

let test_trace_validator_rejects () =
  (match Obs.validate_trace "{\"name\":\"x\",\"ph\":\"X\"}" with
  | Ok _ -> Alcotest.fail "top-level object accepted"
  | Error _ -> ());
  (match Obs.validate_trace "[{\"name\":\"x\"}]" with
  | Ok _ -> Alcotest.fail "event without ph accepted"
  | Error _ -> ());
  (match Obs.validate_trace "[{\"name\":\"x\",\"ph\":\"X\"}" with
  | Ok _ -> Alcotest.fail "truncated input accepted"
  | Error _ -> ());
  match Obs.validate_trace "[{\"name\":\"x\",\"ph\":\"X\"}] trailing" with
  | Ok _ -> Alcotest.fail "trailing garbage accepted"
  | Error _ -> ()

(* Spans recorded inside pool tasks travel in the tasks' deltas: each
   appears exactly once in the caller's snapshot, in task-index order,
   under a "pool.task" span whose parent is the submitting phase. *)
let test_task_spans () =
  let n = 16 in
  let name i = Printf.sprintf "task %d" i in
  Parallel.with_pool ~size:4 (fun p ->
      with_obs (fun () ->
          ignore
            (Obs.phase "submit" (fun () ->
                 Parallel.map p
                   (fun i -> Obs.phase (name i) (fun () -> i))
                   (Array.init n Fun.id))
              : int array);
          let spans = (Obs.snapshot ()).Obs.spans in
          let named s =
            List.filter (fun (x : Obs.span) -> x.Obs.span_name = s) spans
          in
          let inner =
            List.filter_map
              (fun (x : Obs.span) ->
                if String.starts_with ~prefix:"task " x.Obs.span_name then
                  Some x.Obs.span_name
                else None)
              spans
          in
          Alcotest.(check (list string))
            "each task's span once, in task-index order"
            (List.init n name) inner;
          let submit =
            match named "submit" with
            | [ s ] -> s
            | l -> Alcotest.failf "%d submit spans" (List.length l)
          in
          let tasks = named "pool.task" in
          checki "one pool.task span per task" n (List.length tasks);
          List.iter
            (fun (t : Obs.span) ->
              checki "a pool.task's parent is the submitting phase"
                submit.Obs.span_id t.Obs.parent_id)
            tasks;
          Obs.reset ();
          checki "reset drops them" 0
            (List.length (Obs.snapshot ()).Obs.spans)))

(* ------------------ observing must not perturb --------------------- *)

let test_enabled_run_identical_and_counted () =
  let dl = T_env.get_dl () in
  let specs = T_env.random_sinks ~seed:42 ~n:12 ~die:3000. () in
  Obs.set_enabled false;
  let plain = Cts.synthesize dl specs in
  let observed, snap =
    with_obs (fun () ->
        let r = Cts.synthesize dl specs in
        (r, Obs.snapshot ()))
  in
  checkb "observability does not perturb the tree" true
    (Ctree_netlist.to_deck T_env.tech plain.Cts.tree
    = Ctree_netlist.to_deck T_env.tech observed.Cts.tree);
  let c name = List.assoc name snap.Obs.counters in
  checkb "maze bins were counted" true (c "maze.bins_evaluated" > 0);
  checkb "each probed split point evaluates both sides" true
    (c "run.evals" >= 2 * c "maze.bins_evaluated");
  checki "a binary tree routes sinks-1 merges"
    (List.length specs - 1)
    (c "merge.merges_routed");
  let hist name = List.assoc name snap.Obs.histograms in
  let total l = List.fold_left (fun a (_, v) -> a + v) 0 l in
  checki "buffer histogram sums to the result's count"
    observed.Cts.inserted_buffers
    (total (hist "buffers_per_level"));
  checki "merge histogram sums to all merges"
    (List.length specs - 1)
    (total (hist "merges_per_level"));
  checkb "per-level phases were timed" true
    (List.exists
       (fun (s : Obs.span) -> s.Obs.span_name = "level 1")
       snap.Obs.spans)

(* -------------- schedule-independence of the counters -------------- *)

let descriptor_gen =
  QCheck.Gen.(
    let* n = int_range 3 40 in
    let* die_k = int_range 2 10 in
    let* cluster = int_range 0 2 in
    let+ salt = int_range 0 1000 in
    {
      Bmark.Synthetic.name = Printf.sprintf "obs%d_%d" n salt;
      n_sinks = n;
      die = float_of_int die_k *. 1000.;
      cap_lo = 5e-15;
      cap_hi = 30e-15;
      cluster_fraction = float_of_int cluster /. 2.;
    })

let descriptor_arb =
  QCheck.make descriptor_gen ~print:(fun d ->
      Printf.sprintf "%s (%d sinks, die %.0f, cluster %.1f)"
        d.Bmark.Synthetic.name d.Bmark.Synthetic.n_sinks d.Bmark.Synthetic.die
        d.Bmark.Synthetic.cluster_fraction)

let qcheck_counters_schedule_independent =
  QCheck.Test.make
    ~name:"obs: counter snapshot identical at pool sizes 1 and 4" ~count:6
    descriptor_arb (fun d ->
      let dl = T_env.get_dl () in
      let specs = Bmark.Synthetic.sinks d in
      let cfg =
        Cts_config.with_hstructure (Cts_config.default dl)
          Cts_config.H_reestimate
      in
      let snap_at size =
        Parallel.with_pool ~size (fun p ->
            with_obs (fun () ->
                ignore (Cts.synthesize ~config:cfg ~pool:p dl specs);
                Obs.snapshot ()))
      in
      let s1 = snap_at 1 in
      let s4 = snap_at 4 in
      s1.Obs.counters = s4.Obs.counters
      && s1.Obs.histograms = s4.Obs.histograms)

(* ----------------- counters independent of history ----------------- *)

(* Each synthesis builds its own span table, so what ran earlier in the
   process cannot change its counters. The slew target is one no other
   test uses: at the first run no table for it exists in any test
   order, at the second the first run's does. *)
let test_back_to_back_counters_equal () =
  let dl = T_env.get_dl () in
  let specs = T_env.random_sinks ~seed:42 ~n:12 ~die:3000. () in
  let cfg = Cts_config.default dl in
  let cfg =
    { cfg with Cts_config.slew_target = 0.97 *. cfg.Cts_config.slew_target }
  in
  let observe () =
    with_obs (fun () ->
        ignore (Cts.synthesize ~config:cfg dl specs : Cts.result);
        Obs.snapshot ())
  in
  let first = observe () in
  let second = observe () in
  Alcotest.(check (list (pair string int)))
    "counters equal" first.Obs.counters second.Obs.counters;
  Alcotest.(check (list (pair string int)))
    "gauges equal" first.Obs.gauges second.Obs.gauges;
  checkb "histograms equal" true (first.Obs.histograms = second.Obs.histograms);
  checki "one table build per synthesis"
    (List.length (Delaylib.buffers dl) * Delaylib.n_classes dl)
    (List.assoc "run.span_cache_misses" second.Obs.counters)

(* ------------------- span table vs direct compute ------------------- *)

let bits = Int64.bits_of_float

(* At several slew targets and at a random cap inside every load class,
   for every library buffer, a table lookup returns the exact value the
   direct computation yields. *)
let qcheck_span_table_matches_direct =
  QCheck.Test.make ~name:"obs: Run.span table = direct max_length_for_slew"
    ~count:40
    QCheck.(triple (int_range 0 4) (float_range 0. 0.49) bool)
    (fun (k, t, upward) ->
      let dl = T_env.get_dl () in
      let cfg = Cts_config.default dl in
      let cfg =
        {
          cfg with
          Cts_config.slew_target =
            cfg.Cts_config.slew_target *. (0.9 +. (0.05 *. float_of_int k));
        }
      in
      let slew = cfg.Cts_config.slew_target in
      let classes = Delaylib.classes dl in
      let n = Array.length classes in
      (* A cap [t] of the way (in log space) from class [c] towards a
         neighbour, or towards a factor of 2 beyond the end classes:
         still nearest to [c], so [class_index] returns [c]. *)
      let cap c =
        let toward =
          if upward then if c + 1 < n then classes.(c + 1) else 2. *. classes.(c)
          else if c > 0 then classes.(c - 1)
          else 0.5 *. classes.(c)
        in
        exp (((1. -. t) *. log classes.(c)) +. (t *. log toward))
      in
      List.for_all
        (fun drive ->
          List.for_all
            (fun c ->
              let load_cap = cap c in
              let direct =
                Delaylib.max_length_for_slew dl ~drive ~load_cap
                  ~input_slew:slew ~slew_limit:slew
              in
              Delaylib.class_index dl load_cap = c
              && Int64.equal (bits (Run.span dl cfg ~drive ~load_cap))
                   (bits direct))
            (List.init n Fun.id))
        (Delaylib.buffers dl))

(* A driver outside the library has no span: the lookup names it, after
   building the table for its key (a slew target no other test uses, so
   no table exists yet), and the table still serves valid lookups. *)
let test_span_foreign_driver () =
  let dl = T_env.get_dl () in
  let cfg = Cts_config.default dl in
  let cfg =
    { cfg with Cts_config.slew_target = 0.93 *. cfg.Cts_config.slew_target }
  in
  let foreign = Circuit.Buffer_lib.make ~name:"BUF99X" ~size:99. in
  with_obs (fun () ->
      (match Run.span dl cfg ~drive:foreign ~load_cap:5e-15 with
      | _ -> Alcotest.fail "a driver outside the library got a span"
      | exception Invalid_argument msg ->
          checkb ("the error names the driver: " ^ msg) true
            (contains msg "BUF99X"));
      let built = Obs.read Obs.Span_cache_misses in
      checki "the failed lookup built the table"
        (List.length (Delaylib.buffers dl) * Delaylib.n_classes dl)
        built;
      let drive = Delaylib.first_buffer dl in
      let slew = cfg.Cts_config.slew_target in
      let direct =
        Delaylib.max_length_for_slew dl ~drive ~load_cap:5e-15
          ~input_slew:slew ~slew_limit:slew
      in
      checkb "a later valid lookup returns the direct span" true
        (Int64.equal (bits (Run.span dl cfg ~drive ~load_cap:5e-15))
           (bits direct));
      checki "and reads the published table" built
        (Obs.read Obs.Span_cache_misses))

let suite ~property =
  [
    Alcotest.test_case "invalid configs are rejected" `Quick
      test_config_validation;
    Alcotest.test_case "placer reports infeasibility" `Quick
      test_placer_infeasible;
    Alcotest.test_case "enable/disable/reset" `Quick test_obs_enable_disable;
    Alcotest.test_case "phases, summary and trace export" `Quick
      test_phase_and_trace;
    Alcotest.test_case "trace validator rejects malformed JSON" `Quick
      test_trace_validator_rejects;
    Alcotest.test_case "pool task spans reach the snapshot once" `Quick
      test_task_spans;
    Alcotest.test_case "observing perturbs nothing and counts" `Slow
      test_enabled_run_identical_and_counted;
    property qcheck_counters_schedule_independent;
    Alcotest.test_case "back-to-back syntheses count the same" `Slow
      test_back_to_back_counters_equal;
    property qcheck_span_table_matches_direct;
    Alcotest.test_case "span of a driver outside the library" `Quick
      test_span_foreign_driver;
  ]
