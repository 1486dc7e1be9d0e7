type t = { rep : Metric.rep; snapshot : Obs.snapshot }

let span_total (snap : Obs.snapshot) name =
  List.fold_left
    (fun acc (s : Obs.span) ->
      if String.equal s.Obs.span_name name then acc +. (s.Obs.t_stop -. s.Obs.t_start)
      else acc)
    0. snap.Obs.spans

let count (snap : Obs.snapshot) name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name snap.Obs.counters))

let gauge (snap : Obs.snapshot) name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name snap.Obs.gauges))

let ratio num den = if den > 0. then num /. den else 0.

(* Mean seconds per call over [n] calls; inputs cycle through a fixed
   table so no two consecutive calls share arguments. *)
let per_call n f =
  let t0 = Rep.now () in
  for i = 0 to n - 1 do
    f i
  done;
  (Rep.now () -. t0) /. float_of_int n

let micro_calls = 100_000

let run ~profile (w : Workload.t) ~seed =
  Rep.with_pool @@ fun pool ->
  let dl, characterize_s = Rep.timed (fun () -> Rep.characterize ~profile pool) in
  let sinks = Workload.sinks w ~seed in
  let cfg = Workload.config w dl in
  let synth () = Cts.synthesize ~config:cfg ~pool dl sinks in
  (* Untraced baseline: the time tracing overhead is priced against,
     and the synthesis's allocation. Both runs start from an empty span
     cache so they do the same work. *)
  Run.reset_span_cache ();
  let g0 = Gc.quick_stat () in
  let _, plain_s = Rep.timed synth in
  let g1 = Gc.quick_stat () in
  let peak_rss_mb = Rep.peak_rss_mb () in
  Run.reset_span_cache ();
  Obs.reset ();
  Obs.set_enabled true;
  let res, traced_s, counters, failure, sim, snap =
    Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
    (* 1. Counters and gauges of one traced synthesis. *)
    let res, traced_s = Rep.timed (fun () -> Obs.phase "cts.synthesize" synth) in
    let counters = Obs.snapshot () in
    (* 2. Layer spans from the replayed level loop. *)
    let replayed = Obs.phase "replay" (fun () -> Replay.synthesize dl cfg sinks) in
    (* 3. Signoff layers on step 1's tree. *)
    let tree = res.Cts.tree in
    ignore
      (Obs.phase "timing.analyze_tree" (fun () -> Timing.analyze_tree dl cfg tree)
        : Timing.report);
    let violations =
      Obs.phase "cts.verify_tree" (fun () -> Cts.verify_tree dl cfg tree)
    in
    let sim =
      Obs.phase "ctree_sim.simulate" (fun () -> Ctree_sim.simulate Rep.tech tree)
    in
    let failure =
      match Rep.failure cfg tree violations sim with
      | Some _ as f -> f
      | None -> (
          match Replay.mismatches res replayed with
          | [] -> None
          | fields ->
              Some ("replayed level loop differs in " ^ String.concat ", " fields))
    in
    (res, traced_s, counters, failure, sim, Obs.snapshot ())
  in
  (* 4. Per-call cost of the two innermost kernels, with Obs off as in
     the timed reps. *)
  let lengths = Array.init 64 (fun k -> 40. *. float_of_int k) in
  let leaf = Port.of_sink (List.hd sinks) in
  let drive = cfg.Cts_config.assumed_driver in
  let eval_single_s =
    per_call micro_calls (fun i ->
        ignore
          (Delaylib.eval_single dl ~drive ~load_cap:20e-15
             ~input_slew:cfg.Cts_config.slew_target ~length:lengths.(i land 63)
            : Delaylib.single_eval))
  in
  let run_eval_s =
    per_call micro_calls (fun i ->
        ignore (Run.eval dl cfg leaf lengths.(i land 63) : Run.eval))
  in
  let c = count counters and sp = span_total snap in
  let rates = Obs.derived_rates counters in
  let rate name = Option.value ~default:0. (List.assoc_opt name rates) in
  let maze_s = sp "maze.select" and merge_s = sp "merge_routing.merge" in
  let pairing_s = sp "topology.level_pairing" in
  let m = Metric.make in
  let metrics =
    [
      m "maze.select_s" "s" maze_s;
      m "maze.selects" "count" (c "maze.selects");
      m "maze.bins_evaluated" "count" (c "maze.bins_evaluated");
      m "maze.eval_cache.hit_pct" "%" (rate "maze.eval_cache.hit_pct");
      m "maze.memo_slots" "count" (gauge counters "maze.memo_slots");
      m "run.evals" "count" (c "run.evals");
      m "run.evals_per_select" "count" (ratio (c "run.evals") (c "maze.selects"));
      m "run.buffers_placed" "count" (c "run.buffers_placed");
      m "run.eval_us" "us" (run_eval_s *. 1e6);
      m "run.span_cache.hit_pct" "%" (rate "run.span_cache.hit_pct");
      m "dp.evals" "count" (c "dp.evals");
      m "dp.candidates" "count" (c "dp.candidates");
      m "dp.pruned" "count" (c "dp.pruned");
      m "dp.fallbacks" "count" (c "dp.fallbacks");
      m "delaylib.evals_single" "count" (c "delaylib.evals_single");
      m "delaylib.evals_branch" "count" (c "delaylib.evals_branch");
      m "delaylib.eval_single_ns" "ns" (eval_single_s *. 1e9);
      m "delaylib.est_lookup_s" "s" (c "delaylib.evals_single" *. eval_single_s);
      m "topology.level_pairing_s" "s" pairing_s;
      m "topology.edge_costs" "count" (c "topology.edge_costs");
      m "topology.pairings" "count" (c "topology.pairings");
      m "cts.synthesize_s" "s" traced_s;
      m "merge_routing.merge_s" "s" merge_s;
      m "merge_routing.self_s" "s" (merge_s -. maze_s);
      m "merge.merges_routed" "count" (c "merge.merges_routed");
      m "merge.bisection_iters" "count" (c "merge.bisection_iters");
      m "merge.snake_stages" "count" (c "merge.snake_stages");
      m "timing.stages" "count" (c "timing.stages");
      m "timing.analyses" "count" (c "timing.analyses");
      m "cts.flippings" "count" (float_of_int res.Cts.flippings);
      m "timing.analyze_tree_s" "s" (sp "timing.analyze_tree");
      m "cts.verify_tree_s" "s" (sp "cts.verify_tree");
      m "ctree_sim.simulate_s" "s" (sp "ctree_sim.simulate");
      m "ctree_sim.stages" "count" (float_of_int sim.Ctree_sim.n_stages);
      m "ctree_sim.skew_ps" "ps" (sim.Ctree_sim.skew *. 1e12);
      m "ctree_sim.latency_ps" "ps" (sim.Ctree_sim.latency *. 1e12);
      m "delaylib.characterize_s" "s" characterize_s;
      m "peak_rss_mb" "MB" peak_rss_mb;
      m "cts.minor_mwords" "Mword" ((g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6);
      m "cts.major_mwords" "Mword" ((g1.Gc.major_words -. g0.Gc.major_words) /. 1e6);
      m "obs.overhead_pct" "%" (100. *. ratio (traced_s -. plain_s) plain_s);
    ]
  in
  let rep =
    match failure with
    | Some reason -> Error reason
    | None -> Ok (metrics, Rep.digest res.Cts.tree)
  in
  { rep; snapshot = snap }
