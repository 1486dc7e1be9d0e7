(* Tests for the run record (lib/qor) and its one gate: the canonical
   Obs_json writer, Qor capture/serialize/validate round trips, the
   CTS_DOMAINS byte-identity contract, the runtime span tree, the
   Qor_compare threshold edges, the threshold oracle against the two
   tables the one table replaced, and the exit matrix of
   [cts_run compare] (= Qor_compare.compare_files).

   Two suites share this file. [suite] covers the QoR half of the
   record; [cost_suite] covers its cost half — counters, gauges,
   histograms and the span tree — whose cases keep the IDs they had
   when that half was a separate snapshot file with its own diff
   command ("obs diff: ..."). Those cases now run the one reader and
   the one gate. *)

module J = Obs_json
module C = Qor_compare

let check_f = Alcotest.(check (float 1e-9))

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let prefixed p name =
  String.length name >= String.length p
  && String.sub name 0 (String.length p) = p

(* ------------------------ Obs_json writer ------------------------- *)

let writer_canonical () =
  let v =
    J.Obj
      [
        ("i", J.Num 3.);
        ("f", J.Num 0.125);
        ("s", J.Str "a\"b\n");
        ("b", J.Bool true);
        ("n", J.Null);
        ("a", J.Arr [ J.Num 1.; J.Num 2. ]);
      ]
  in
  Alcotest.(check string)
    "compact form"
    "{\"i\":3,\"f\":0.125,\"s\":\"a\\\"b\\n\",\"b\":true,\"n\":null,\"a\":[1,2]}"
    (J.to_string v);
  (* The writer's output must re-parse to an equal value (round trip
     through our own strict parser), compact and pretty alike. *)
  (match J.parse (J.to_string v) with
  | Ok v' -> Alcotest.(check bool) "compact round trip" true (v = v')
  | Error e -> Alcotest.fail e);
  match J.parse (J.to_string ~pretty:true v) with
  | Ok v' -> Alcotest.(check bool) "pretty round trip" true (v = v')
  | Error e -> Alcotest.fail e

let writer_rejects_non_finite () =
  let msg = "Obs_json.to_string: NaN or infinite number" in
  Alcotest.check_raises "nan" (Invalid_argument msg) (fun () ->
      ignore (J.to_string (J.Num Float.nan)));
  Alcotest.check_raises "inf" (Invalid_argument msg) (fun () ->
      ignore (J.to_string (J.Num Float.infinity)))

(* -------------------- capture and round trip ---------------------- *)

(* One observed synthesis of a fixed 24-sink instance, captured the
   way [cts_run qor] captures: observability on around synthesis
   alone. *)
let synth_once ?(pool_size = 1) ?(runtime = false)
    ?(insertion = Cts_config.Greedy) () =
  let dl = T_env.get_dl () in
  let sinks = T_env.random_sinks ~seed:11 ~n:24 ~die:2000. () in
  let config = Cts_config.with_insertion (Cts_config.default dl) insertion in
  let pool = Parallel.create ~size:pool_size () in
  Obs.reset ();
  Obs.set_enabled true;
  let res = Cts.synthesize ~config ~pool dl sinks in
  let obs = Obs.snapshot () in
  Obs.set_enabled false;
  Parallel.shutdown pool;
  let q =
    Qor.capture ~label:"t_qor" ~profile:"fast" ~scale:1.0 ~obs ~runtime dl
      config res
  in
  (q, config)

let synth_dp ?pool_size ?runtime () =
  fst (synth_once ?pool_size ?runtime ~insertion:Cts_config.Optimal_dp ())

let capture_sanity () =
  let q, config = synth_once () in
  Alcotest.(check int) "schema version" Qor.schema_version q.Qor.version;
  Alcotest.(check int) "sinks" 24 q.Qor.sinks;
  Alcotest.(check bool) "skew >= 0" true (q.Qor.skew_ps >= 0.);
  Alcotest.(check bool) "max >= mean latency" true
    (q.Qor.max_latency_ps >= q.Qor.mean_latency_ps);
  Alcotest.(check bool) "buffers counted" true (q.Qor.buffer_count > 0);
  Alcotest.(check int) "by_type total = buffer_count" q.Qor.buffer_count
    (List.fold_left (fun a r -> a + r.Qor.count) 0 q.Qor.buffers_by_type);
  Alcotest.(check bool) "slew margin respects limit" true
    (q.Qor.slew_margin.Qor.min_ps
    <= config.Cts_config.slew_limit *. 1e12 +. 1e-6);
  Alcotest.(check bool) "slew margin ordered" true
    (q.Qor.slew_margin.Qor.min_ps <= q.Qor.slew_margin.Qor.p50_ps
    && q.Qor.slew_margin.Qor.p50_ps <= q.Qor.slew_margin.Qor.p95_ps
    && q.Qor.slew_margin.Qor.p95_ps <= q.Qor.slew_margin.Qor.max_ps);
  Alcotest.(check bool) "counters absorbed" true (q.Qor.counters <> []);
  Alcotest.(check bool) "runtime omitted by default" true (q.Qor.spans = [])

let json_round_trip () =
  let q, _ = synth_once () in
  let text = Qor.render q in
  match J.parse text with
  | Error e -> Alcotest.fail ("rendered record does not parse: " ^ e)
  | Ok v -> (
      match Qor.of_json v with
      | Error e -> Alcotest.fail ("strict reader rejects own output: " ^ e)
      | Ok q' ->
          Alcotest.(check bool) "value round trip" true (q = q');
          Alcotest.(check string) "render is a fixed point" text
            (Qor.render q'))

let with_members f = function
  | J.Obj ms -> J.Obj (f ms)
  | _ -> Alcotest.fail "to_json did not produce an object"

(* Replace the object at key [k] of an object's members. *)
let map_member k f ms =
  List.map (fun (k', v) -> if k' = k then (k', f v) else (k', v)) ms

let set_version n =
  with_members (map_member "qor_version" (fun _ -> J.Num (float_of_int n)))

let reader_rejects_unknown_key () =
  let q, _ = synth_once () in
  let v = with_members (fun ms -> ms @ [ ("surprise", J.Num 1.) ]) (Qor.to_json q) in
  match Qor.of_json v with
  | Error msg ->
      Alcotest.(check bool) "error names the key" true
        (contains_sub ~sub:"surprise" msg);
      Alcotest.(check bool) "error names the strict reader" true
        (contains_sub ~sub:"unknown field (strict reader)" msg)
  | Ok _ -> Alcotest.fail "unknown key accepted"

let reader_names_nested_unknown_key () =
  (* Unknown keys inside nested sections are rejected with the full
     dotted path, not just the leaf key. *)
  let q, _ = synth_once () in
  let spiked =
    with_members
      (map_member "wire_um"
         (with_members (fun ws -> ws @ [ ("kink", J.Num 0.) ])))
      (Qor.to_json q)
  in
  match Qor.of_json spiked with
  | Error msg ->
      Alcotest.(check bool) "dotted path in message" true
        (contains_sub ~sub:"wire_um.kink" msg);
      Alcotest.(check bool) "strict-reader wording" true
        (contains_sub ~sub:"unknown field (strict reader)" msg)
  | Ok _ -> Alcotest.fail "nested unknown key accepted"

let reader_rejects_future_version () =
  let q, _ = synth_once () in
  Alcotest.(check bool) "future version rejected" true
    (Result.is_error
       (Qor.of_json (set_version (Qor.schema_version + 1) (Qor.to_json q))))

(* The reader accepts exactly the current version. A version-1 record
   (per-level rows under [buffers], no gauges or histograms) is
   rejected by name, not misread. *)
let reader_rejects_v1 () =
  let q, _ = synth_once () in
  let v1 =
    with_members
      (fun ms ->
        List.filter (fun (k, _) -> k <> "gauges" && k <> "histograms") ms
        |> map_member "buffers"
             (with_members (fun bs -> bs @ [ ("by_level", J.Arr []) ])))
      (set_version 1 (Qor.to_json q))
  in
  match Qor.of_json v1 with
  | Ok _ -> Alcotest.fail "version 1 accepted"
  | Error msg ->
      Alcotest.(check bool) "names qor_version" true
        (contains_sub ~sub:"qor_version" msg);
      Alcotest.(check bool) "names the supported version" true
        (contains_sub
           ~sub:(Printf.sprintf "supported: %d" Qor.schema_version)
           msg)

(* The acceptance criterion: a record of the same seed is
   byte-identical whether synthesis ran on 1 domain or 4. *)
let domains_byte_identity () =
  let q1, _ = synth_once ~pool_size:1 () in
  let q4, _ = synth_once ~pool_size:4 () in
  Alcotest.(check string) "byte-identical render" (Qor.render q1)
    (Qor.render q4)

(* The gate captures greedy and DP records back to back in separate
   processes; nothing a synthesis leaves behind may change the next
   record. *)
let no_state_shared () =
  let first = Qor.render (synth_dp ()) in
  ignore (synth_once () : Qor.t * Cts_config.t);
  Alcotest.(check string) "DP, greedy, DP: both DP renders equal" first
    (Qor.render (synth_dp ()))

let with_temp prefix f =
  let path = Filename.temp_file prefix ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let file_round_trip () =
  let q, _ = synth_once () in
  with_temp "qor" (fun path ->
      Qor.write_file path q;
      match Qor.load_file path with
      | Ok q' -> Alcotest.(check bool) "load_file round trip" true (q = q')
      | Error e -> Alcotest.fail e)

let load_file_error_names_path () =
  match Qor.load_file "no/such/snapshot.json" with
  | Ok _ -> Alcotest.fail "loaded a nonexistent file"
  | Error msg ->
      Alcotest.(check bool) "path in message" true
        (contains_sub ~sub:"no/such/snapshot.json" msg)

(* [cts_run compare]'s exit-2 contract lives in
   [Qor_compare.compare_files]: every [Error] below is printed and
   mapped to exit 2 by the binary. *)

let with_record_file ?(record = fun () -> fst (synth_once ())) f =
  let q = record () in
  with_temp "qor" (fun path ->
      Qor.write_file path q;
      f q path)

let expect_compare_error name ~sub ~baseline candidate =
  match C.compare_files ~baseline candidate with
  | Ok _ -> Alcotest.fail (name ^ ": expected an error")
  | Error msg ->
      Alcotest.(check bool) (name ^ ": message content") true
        (contains_sub ~sub msg)

let read_text path =
  match J.read_file path with Ok t -> t | Error e -> Alcotest.fail e

let write_truncated ~src ~keep dst =
  let text = read_text src in
  let oc = open_out_bin dst in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (String.sub text 0 (keep text)))

let compare_files_missing_file () =
  with_record_file (fun _ good ->
      expect_compare_error "missing baseline" ~sub:"no/such/base.json"
        ~baseline:"no/such/base.json" good;
      expect_compare_error "missing candidate" ~sub:"no/such/cand.json"
        ~baseline:good "no/such/cand.json")

let compare_files_truncated_json () =
  with_record_file (fun _ good ->
      with_temp "qor_trunc" (fun bad ->
          write_truncated ~src:good ~keep:(fun t -> String.length t / 2) bad;
          expect_compare_error "truncated candidate" ~sub:bad ~baseline:good
            bad))

let compare_files_future_version () =
  with_record_file (fun q good ->
      with_temp "qor_future" (fun bad ->
          J.write_file bad (set_version (Qor.schema_version + 1) (Qor.to_json q));
          expect_compare_error "future baseline" ~sub:"qor_version"
            ~baseline:bad good))

let compare_files_ok () =
  with_record_file (fun _ good ->
      match C.compare_files ~baseline:good good with
      | Error e -> Alcotest.fail e
      | Ok rep ->
          Alcotest.(check bool) "self-compare clean" false
            (C.has_regression rep);
          Alcotest.(check int) "exit code 0" 0 (C.exit_code rep);
          Alcotest.(check int) "no warnings" 0 (List.length rep.C.warnings))

(* ------------------------- Qor_compare ---------------------------- *)

let skew_th = C.default_threshold "timing.skew_ps"

let verdict_of rep name =
  match List.find_opt (fun r -> r.C.metric = name) rep.C.rows with
  | Some r -> r.C.verdict
  | None -> Alcotest.failf "metric %s missing from report" name

let pp_verdict fmt v =
  Format.pp_print_string fmt
    (match v with
    | C.Improved -> "improved"
    | C.Unchanged -> "unchanged"
    | C.Regressed -> "regressed"
    | C.New -> "new"
    | C.Dropped -> "dropped"
    | C.Changed -> "changed")

let vd = Alcotest.testable pp_verdict ( = )

let compare_at_threshold () =
  (* abs_tol dominates at base=10 (rel 2% = 0.2 < 0.5). A delta exactly
     at the threshold must pass; definitively beyond it must not. *)
  let base = [ ("timing.skew_ps", 10.) ] in
  let at = C.of_metrics ~baseline:base [ ("timing.skew_ps", 10.5) ] in
  Alcotest.check vd "exactly at threshold" C.Unchanged
    (verdict_of at "timing.skew_ps");
  let over = C.of_metrics ~baseline:base [ ("timing.skew_ps", 10.6) ] in
  Alcotest.check vd "beyond threshold" C.Regressed
    (verdict_of over "timing.skew_ps");
  Alcotest.(check int) "exit code regressed" 6 (C.exit_code over);
  Alcotest.(check int) "exit code clean" 0 (C.exit_code at);
  (* rel_tol dominates at base=100 (2% = 2.0 > abs 0.5). *)
  let rel_at = C.of_metrics ~baseline:[ ("timing.skew_ps", 100.) ]
      [ ("timing.skew_ps", 102.) ] in
  Alcotest.check vd "exactly at relative threshold" C.Unchanged
    (verdict_of rel_at "timing.skew_ps");
  check_f "sanity: abs_tol" 0.5 skew_th.C.abs_tol

let compare_epsilon_equal () =
  (* Float_cmp.approx_eq values are unchanged even though they differ
     in the last bits. *)
  let b = 30.736 in
  let c = b +. (Float.abs b *. 1e-12) in
  Alcotest.(check bool) "inputs really differ" true (b <> c);
  let rep =
    C.of_metrics ~baseline:[ ("timing.skew_ps", b) ] [ ("timing.skew_ps", c) ]
  in
  Alcotest.check vd "epsilon-equal is unchanged" C.Unchanged
    (verdict_of rep "timing.skew_ps")

let compare_missing_metric () =
  (* A metric absent from the baseline is "new" in the candidate, never
     a regression; the converse is "dropped". *)
  let baseline = [ ("timing.skew_ps", 10.); ("wire.total_um", 500.) ] in
  let candidate =
    [ ("timing.skew_ps", 10.); ("slew_margin.p99_ps", 3.) ]
  in
  let rep = C.of_metrics ~baseline candidate in
  Alcotest.check vd "new metric" C.New (verdict_of rep "slew_margin.p99_ps");
  Alcotest.check vd "dropped metric" C.Dropped (verdict_of rep "wire.total_um");
  Alcotest.(check int) "neither gates" 0 (C.exit_code rep)

let compare_directions () =
  (* slew_margin.min_ps is higher-better: shrinking it regresses. *)
  let rep =
    C.of_metrics ~baseline:[ ("slew_margin.min_ps", 20.) ]
      [ ("slew_margin.min_ps", 10.) ]
  in
  Alcotest.check vd "margin shrink regresses" C.Regressed
    (verdict_of rep "slew_margin.min_ps");
  let rep' =
    C.of_metrics ~baseline:[ ("slew_margin.min_ps", 10.) ]
      [ ("slew_margin.min_ps", 20.) ]
  in
  Alcotest.check vd "margin growth improves" C.Improved
    (verdict_of rep' "slew_margin.min_ps");
  (* Gauges are informational: huge swings never gate... *)
  let rep'' =
    C.of_metrics ~baseline:[ ("gauge.dp.memo_slots", 100.) ]
      [ ("gauge.dp.memo_slots", 9000.) ]
  in
  Alcotest.check vd "gauge swing is informational" C.Changed
    (verdict_of rep'' "gauge.dp.memo_slots");
  Alcotest.(check int) "informational never gates" 0 (C.exit_code rep'');
  (* ...while a work counter is a cost: more of it regresses. *)
  let rep''' =
    C.of_metrics ~baseline:[ ("obs.merge.merges_routed", 100.) ]
      [ ("obs.merge.merges_routed", 9000.) ]
  in
  Alcotest.check vd "counter growth regresses" C.Regressed
    (verdict_of rep''' "obs.merge.merges_routed")

(* Golden rendering of the delta table: locked so the gate's CI output
   stays stable and readable. *)
let compare_render_golden () =
  let rep =
    C.of_metrics
      ~baseline:[ ("timing.skew_ps", 30.736); ("buffers.count", 21.) ]
      [ ("timing.skew_ps", 32.273); ("buffers.count", 21.) ]
  in
  let expected =
    "metric          baseline  candidate  delta   rel     verdict\n\
     --------------------------------------------------------------\n\
     timing.skew_ps  30.736    32.273     +1.537  +5.00%  REGRESSED\n\
     verdict: 1 regressed, 0 improved, 1 unchanged of 2 metrics\n"
  in
  Alcotest.(check string) "golden delta table" expected (C.render rep)

let compare_snapshots_warnings () =
  let q, _ = synth_once () in
  let q' = { q with Qor.label = "other"; scale = 0.5 } in
  let rep = C.compare_snapshots ~baseline:q q' in
  Alcotest.(check int) "label+scale mismatch warned" 2
    (List.length rep.C.warnings);
  let clean = C.compare_snapshots ~baseline:q q in
  Alcotest.(check int) "self-compare has no warnings" 0
    (List.length clean.C.warnings);
  Alcotest.(check bool) "self-compare is clean" false
    (C.has_regression clean)

let set_counter q name f =
  {
    q with
    Qor.counters =
      List.map
        (fun (n, x) -> if n = name then (n, f x) else (n, x))
        q.Qor.counters;
  }

let exit_against ~baseline candidate =
  C.exit_code (C.compare_snapshots ~baseline candidate)

(* Injected regressions on real records must trip the gate: 5% skew on
   a greedy record, and 10% more DP candidates on a DP record — the DP
   record's counters gate since the two gates became one. *)
let compare_injected_regression () =
  let q, _ = synth_once () in
  let worse = { q with Qor.skew_ps = Qor.round3 (q.Qor.skew_ps *. 1.05) } in
  let rep = C.compare_snapshots ~baseline:q worse in
  Alcotest.check vd "5% skew regresses" C.Regressed
    (verdict_of rep "timing.skew_ps");
  Alcotest.(check int) "exit 6" 6 (C.exit_code rep);
  let dp = synth_dp () in
  Alcotest.(check bool) "DP record counts candidates" true
    (List.assoc "dp.candidates" dp.Qor.counters > 0);
  Alcotest.(check int) "DP candidates +10%: exit 6" 6
    (exit_against ~baseline:dp
       (set_counter dp "dp.candidates" (fun c -> c + (c / 10))))

(* ------------------------ threshold oracle ------------------------ *)

(* The two tables the one table replaced, as they stood before the
   merge: the QoR gate's (counters informational) and the cost gate's
   budgets, which named counters without the "obs." prefix. *)
let info = { C.abs_tol = 0.; rel_tol = 0.; direction = C.Informational }

let th abs_tol rel_tol direction = { C.abs_tol; rel_tol; direction }

let parent_qor_threshold = function
  | "timing.skew_ps" -> th 0.5 0.02 C.Lower_better
  | "timing.max_latency_ps" | "timing.mean_latency_ps" ->
      th 1.0 0.02 C.Lower_better
  | "timing.worst_slew_ps" -> th 0.5 0.02 C.Lower_better
  | "slew_margin.min_ps" -> th 0.5 0.05 C.Higher_better
  | "wire.total_um" -> th 1.0 0.02 C.Lower_better
  | "wire.snaked_um" -> th 1.0 0.05 C.Lower_better
  | "buffers.count" -> th 0.5 0.05 C.Lower_better
  | "buffers.area_x" -> th 1.0 0.05 C.Lower_better
  | _ -> info

let parent_cost_threshold = function
  | "parallel.spawn_shortfall" -> th 0. 0. C.Lower_better
  | "run.span_cache_misses" -> th 8. 0.05 C.Lower_better
  | "run.span_cache_hits" | "dp.pruned" | "dp.fallbacks" -> info
  | name when prefixed "gauge." name || prefixed "hist." name -> info
  | name when prefixed "rate." name -> th 2.0 0. C.Higher_better
  | _ -> th 16. 0.05 C.Lower_better

(* What the parent gated a merged name with: the cost gate saw
   "obs.<c>" as <c> and "gauge."/"hist."/"rate." names as they are;
   the QoR gate saw every name it had, counters as informational. The
   union is the one that gated. *)
let parent_threshold name =
  let cost =
    if prefixed "obs." name then
      parent_cost_threshold
        (String.sub name 4 (String.length name - 4))
    else if
      List.exists (fun p -> prefixed p name) [ "gauge."; "hist."; "rate." ]
    then parent_cost_threshold name
    else info
  in
  match ((parent_qor_threshold name).C.direction, cost.C.direction) with
  | C.Informational, _ -> cost
  | _, C.Informational -> parent_qor_threshold name
  | _ -> Alcotest.failf "%s was gated by both parent gates" name

(* Every metric name of the three baselines committed before the merge
   (BENCH_qor_fast.json, BENCH_qor_dp.json, BENCH_obs_fast.json), in
   the merged namespace. *)
let pinned_names =
  [
    "timing.skew_ps"; "timing.max_latency_ps"; "timing.mean_latency_ps";
    "timing.worst_slew_ps"; "slew_margin.min_ps"; "slew_margin.p50_ps";
    "slew_margin.p95_ps"; "wire.total_um"; "wire.snaked_um";
    "buffers.count"; "buffers.area_x"; "tree.levels"; "tree.sinks";
    "obs.maze.selects"; "obs.maze.bins_evaluated"; "obs.merge.snake_stages";
    "obs.merge.bisection_iters"; "obs.merge.merges_routed";
    "obs.place.adjusted"; "obs.place.infeasible"; "obs.run.evals";
    "obs.run.buffers_placed"; "obs.dp.evals"; "obs.dp.candidates";
    "obs.dp.pruned"; "obs.dp.fallbacks"; "obs.run.span_cache_hits";
    "obs.run.span_cache_misses"; "obs.delaylib.evals_single";
    "obs.delaylib.evals_branch"; "obs.delaylib.char_sims";
    "obs.timing.stages"; "obs.timing.analyses"; "obs.topology.edge_costs";
    "obs.topology.pairings"; "obs.parallel.spawn_shortfall";
    "gauge.dp.memo_slots"; "gauge.dp.memo_filled";
    "hist.buffers_per_level.total"; "hist.merges_per_level.total";
    "hist.dp_candidates_per_level.total"; "rate.run.span_cache.hit_pct";
  ]

(* Names no committed baseline had: the DP record's fill rate (the
   DP baseline never carried gauges) and one unknown name per
   namespace. *)
let unpinned_names =
  [
    "rate.dp.memo.fill_pct"; "obs.future.counter"; "gauge.future";
    "rate.future"; "future.metric";
  ]

let pp_threshold fmt t =
  Format.fprintf fmt "{abs %g; rel %g; %s}" t.C.abs_tol t.C.rel_tol
    (match t.C.direction with
    | C.Lower_better -> "lower"
    | C.Higher_better -> "higher"
    | C.Informational -> "info")

let threshold_oracle () =
  let tt = Alcotest.testable pp_threshold ( = ) in
  List.iter
    (fun name ->
      Alcotest.check tt name (parent_threshold name)
        (C.default_threshold name))
    (pinned_names @ unpinned_names);
  (* The pins cover every name a gate record carries today. *)
  let q, _ = synth_once () in
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool) (name ^ " pinned") true
        (List.mem name (pinned_names @ unpinned_names)))
    (Qor.metrics q @ Qor.metrics (synth_dp ()))

(* ------------------- cost sections: capture ---------------------- *)

let capture_shape () =
  let q, _ = synth_once () in
  Alcotest.(check bool) "counters captured" true (q.Qor.counters <> []);
  Alcotest.(check bool) "gauges captured" true (q.Qor.gauges <> []);
  Alcotest.(check bool) "histograms captured" true (q.Qor.histograms <> []);
  Alcotest.(check bool) "runtime omitted by default" true (q.Qor.spans = []);
  (* A binary tree over n sinks merges n - 1 times. *)
  Alcotest.(check (option (float 0.))) "one merge per non-root pairing"
    (Some (float_of_int (q.Qor.sinks - 1)))
    (List.assoc_opt "hist.merges_per_level.total" (Qor.metrics q));
  let rt, _ = synth_once ~runtime:true () in
  Alcotest.(check bool) "runtime spans captured on request" true
    (rt.Qor.spans <> []);
  Alcotest.(check bool) "runtime leaves the rest alone" true
    ({ rt with Qor.spans = [] } = q)

let metrics_flatten () =
  let q, _ = synth_once () in
  let ms = Qor.metrics q in
  let names = List.map fst ms in
  let has p = List.exists (prefixed p) names in
  Alcotest.(check bool) "QoR rows first" true
    (List.hd names = "timing.skew_ps");
  Alcotest.(check bool) "obs.<counter> entries" true
    (List.mem "obs.maze.bins_evaluated" names);
  Alcotest.(check bool) "gauge.* entries" true (has "gauge.");
  Alcotest.(check bool) "hist.*.total entries" true (has "hist.");
  Alcotest.(check bool) "rate.* entries" true (has "rate.");
  Alcotest.(check int) "namespaces do not overlap"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun (n, p) ->
      if prefixed "rate." n then
        Alcotest.(check bool) (n ^ " is a percentage") true
          (p >= 0. && p <= 100.))
    ms

(* The DP record carries the gauges and DP counters the greedy one
   leaves at zero; they too are identical at any pool size. *)
let byte_identity_across_pools () =
  let d1 = synth_dp ~pool_size:1 () in
  let d4 = synth_dp ~pool_size:4 () in
  Alcotest.(check bool) "DP gauges non-zero" true
    (List.exists (fun (_, v) -> v > 0) d1.Qor.gauges);
  Alcotest.(check string) "byte-identical render" (Qor.render d1)
    (Qor.render d4)

(* ------------------- cost sections: reader ------------------------ *)

let runtime_round_trip () =
  let q, _ = synth_once ~pool_size:4 ~runtime:true () in
  let text = Qor.render q in
  match J.parse text with
  | Error e -> Alcotest.fail ("rendered record does not parse: " ^ e)
  | Ok v -> (
      match Qor.of_json v with
      | Error e -> Alcotest.fail ("strict reader rejects own output: " ^ e)
      | Ok q' ->
          Alcotest.(check bool) "value round trip" true (q = q');
          Alcotest.(check string) "render is a fixed point" text
            (Qor.render q'))

let runtime_file_round_trip () =
  let q, _ = synth_once ~runtime:true () in
  with_temp "qor_rt" (fun path ->
      Qor.write_file path q;
      match Qor.load_file path with
      | Ok q' -> Alcotest.(check bool) "load_file round trip" true (q = q')
      | Error e -> Alcotest.fail e)

let spike_runtime f q =
  with_members (map_member "runtime" (with_members f)) (Qor.to_json q)

let reader_rejects_span_unknown_key () =
  let q, _ = synth_once ~runtime:true () in
  let spiked =
    spike_runtime
      (map_member "spans" (function
        | J.Arr (J.Obj s :: tl) -> J.Arr (J.Obj (s @ [ ("surprise", J.Num 1.) ]) :: tl)
        | _ -> Alcotest.fail "no spans to spike"))
      q
  in
  match Qor.of_json spiked with
  | Error msg ->
      Alcotest.(check bool) "error names the span and the key" true
        (contains_sub ~sub:"runtime.spans[0].surprise" msg);
      Alcotest.(check bool) "error names the strict reader" true
        (contains_sub ~sub:"unknown field (strict reader)" msg)
  | Ok _ -> Alcotest.fail "unknown span key accepted"

let reader_rejects_runtime_unknown_key () =
  let q, _ = synth_once ~runtime:true () in
  match Qor.of_json (spike_runtime (fun rs -> rs @ [ ("kink", J.Num 0.) ]) q) with
  | Error msg ->
      Alcotest.(check bool) "dotted path in message" true
        (contains_sub ~sub:"runtime.kink" msg)
  | Ok _ -> Alcotest.fail "nested unknown key accepted"

let reader_future_version_message () =
  let q, _ = synth_once () in
  match Qor.of_json (set_version (Qor.schema_version + 1) (Qor.to_json q)) with
  | Error msg ->
      Alcotest.(check bool) "error names the version field" true
        (contains_sub ~sub:"qor_version" msg);
      Alcotest.(check bool) "error names the supported version" true
        (contains_sub
           ~sub:(Printf.sprintf "supported: %d" Qor.schema_version)
           msg)
  | Ok _ -> Alcotest.fail "future qor_version accepted"

(* -------------------- span well-formedness ------------------------ *)

let spans_well_formed_on_real_run () =
  (* 4 domains so pool-task spans exist: cross-domain siblings overlap,
     which check_spans must tolerate while still validating nesting. *)
  let q, _ = synth_once ~pool_size:4 ~runtime:true () in
  (match Qor.check_spans q.Qor.spans with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("real span tree rejected: " ^ e));
  Alcotest.(check bool) "task spans recorded" true
    (List.exists (fun s -> s.Qor.name = "pool.task") q.Qor.spans);
  Alcotest.(check bool) "nested spans recorded" true
    (List.exists (fun s -> s.Qor.depth > 0) q.Qor.spans)

let mk ?(gc = None) ~id ~parent ~depth ~domain ~start ~dur name =
  {
    Qor.name;
    id;
    parent;
    depth;
    domain;
    start_ms = start;
    dur_ms = dur;
    gc;
  }

let expect_bad name ~sub spans =
  match Qor.check_spans spans with
  | Ok () -> Alcotest.fail (name ^ ": malformed tree accepted")
  | Error msg ->
      Alcotest.(check bool) (name ^ ": message content") true
        (contains_sub ~sub msg)

let spans_negative_cases () =
  let root = mk ~id:0 ~parent:(-1) ~depth:0 ~domain:0 ~start:0. ~dur:10. "r" in
  (* A correct two-child tree passes... *)
  (match
     Qor.check_spans
       [
         root;
         mk ~id:1 ~parent:0 ~depth:1 ~domain:0 ~start:0. ~dur:4. "a";
         mk ~id:2 ~parent:0 ~depth:1 ~domain:0 ~start:5. ~dur:5. "b";
       ]
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("well-formed tree rejected: " ^ e));
  (* ...and each malformation is caught with a diagnostic naming it. *)
  expect_bad "duplicate id" ~sub:"duplicate span id"
    [ root; mk ~id:0 ~parent:(-1) ~depth:0 ~domain:1 ~start:0. ~dur:1. "r2" ];
  expect_bad "root depth" ~sub:"depth"
    [ mk ~id:0 ~parent:(-1) ~depth:1 ~domain:0 ~start:0. ~dur:1. "r" ];
  expect_bad "orphan parent" ~sub:"orphan"
    [ root; mk ~id:1 ~parent:7 ~depth:1 ~domain:0 ~start:0. ~dur:1. "a" ];
  expect_bad "depth mismatch" ~sub:"depth"
    [ root; mk ~id:1 ~parent:0 ~depth:2 ~domain:0 ~start:0. ~dur:1. "a" ];
  expect_bad "escapes parent" ~sub:"escapes"
    [ root; mk ~id:1 ~parent:0 ~depth:1 ~domain:0 ~start:8. ~dur:5. "a" ];
  expect_bad "same-domain sibling overlap" ~sub:"overlap"
    [
      root;
      mk ~id:1 ~parent:0 ~depth:1 ~domain:0 ~start:0. ~dur:6. "a";
      mk ~id:2 ~parent:0 ~depth:1 ~domain:0 ~start:5. ~dur:4. "b";
    ];
  (* Cross-domain siblings (pool tasks) may overlap freely. *)
  match
    Qor.check_spans
      [
        root;
        mk ~id:1 ~parent:0 ~depth:1 ~domain:1 ~start:0. ~dur:6. "a";
        mk ~id:2 ~parent:0 ~depth:1 ~domain:2 ~start:5. ~dur:4. "b";
      ]
  with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("cross-domain overlap rejected: " ^ e)

(* ------------------ cost sections: exit matrix -------------------- *)

let with_runtime_record f =
  with_record_file ~record:(fun () -> fst (synth_once ~runtime:true ())) f

(* Inputs that exist but cannot be read, and inputs that do not
   exist: the error names the path either way. *)
let diff_unreadable_file () =
  with_record_file (fun _ good ->
      let dir = Filename.get_temp_dir_name () in
      expect_compare_error "directory as baseline" ~sub:dir ~baseline:dir good;
      expect_compare_error "missing candidate" ~sub:"no/such/cand.json"
        ~baseline:good "no/such/cand.json")

let diff_truncated_runtime () =
  with_runtime_record (fun _ good ->
      with_temp "qor_trunc" (fun bad ->
          (* Three quarters in: inside the span array. *)
          write_truncated ~src:good ~keep:(fun t -> 3 * String.length t / 4) bad;
          expect_compare_error "truncated candidate" ~sub:bad ~baseline:good
            bad))

let diff_future_candidate () =
  with_record_file (fun q good ->
      with_temp "qor_future" (fun bad ->
          J.write_file bad (set_version (Qor.schema_version + 1) (Qor.to_json q));
          expect_compare_error "future candidate" ~sub:"qor_version"
            ~baseline:good bad))

(* The runtime section is wall-clock: a DP record with spans compares
   clean against itself, and the spans add no metric rows. *)
let diff_self_compare () =
  with_record_file
    ~record:(fun () -> synth_dp ~runtime:true ())
    (fun q good ->
      match C.compare_files ~baseline:good good with
      | Error e -> Alcotest.fail e
      | Ok rep ->
          Alcotest.(check bool) "self-compare clean" false
            (C.has_regression rep);
          Alcotest.(check int) "exit code 0" 0 (C.exit_code rep);
          Alcotest.(check int) "no warnings" 0 (List.length rep.C.warnings);
          Alcotest.(check int) "one row per metric"
            (List.length (Qor.metrics { q with Qor.spans = [] }))
            (List.length rep.C.rows))

let diff_injected_regression () =
  let q, _ = synth_once () in
  let beyond c = c + (c / 10) + 16 in
  (* Work counters gate at max(16, 5%), misses at max(8, 5%): 10% plus
     16 trips exit 6 whatever the base. *)
  Alcotest.(check int) "run.evals: exit 6" 6
    (exit_against ~baseline:q (set_counter q "run.evals" beyond));
  Alcotest.(check int) "span-cache misses: exit 6" 6
    (exit_against ~baseline:q (set_counter q "run.span_cache_misses" beyond));
  (* The hit counter stays informational, so moved work is not
     double-counted. *)
  Alcotest.(check int) "span-cache hits: exit 0" 0
    (exit_against ~baseline:q (set_counter q "run.span_cache_hits" beyond));
  (* Any pool-spawn shortfall is a degraded pool: budget is zero. *)
  Alcotest.(check int) "spawn shortfall gates at zero" 6
    (exit_against ~baseline:q
       (set_counter q "parallel.spawn_shortfall" (fun _ -> 1)));
  (* A derived rate 3 points down is beyond its 2 points of slack. *)
  let base = Qor.metrics q in
  let rate = "rate.run.span_cache.hit_pct" in
  Alcotest.(check bool) "hit rate present" true (List.mem_assoc rate base);
  let dropped =
    List.map (fun (n, v) -> if n = rate then (n, v -. 3.) else (n, v)) base
  in
  let rep = C.of_metrics ~baseline:base dropped in
  Alcotest.check vd "hit rate -3 points regresses" C.Regressed
    (verdict_of rep rate);
  Alcotest.(check int) "hit rate -3 points: exit 6" 6 (C.exit_code rep)

let diff_label_mismatch_warns () =
  let q, _ = synth_once () in
  let rep = C.compare_snapshots ~baseline:q { q with Qor.label = "other" } in
  Alcotest.(check int) "label mismatch warned" 1 (List.length rep.C.warnings);
  Alcotest.(check bool) "warning is not a regression" false
    (C.has_regression rep)

let threshold_budgets () =
  let th = C.default_threshold in
  let shortfall = th "obs.parallel.spawn_shortfall" in
  Alcotest.(check bool) "shortfall budget is zero" true
    (shortfall.C.abs_tol = 0. && shortfall.C.rel_tol = 0.
    && shortfall.C.direction = C.Lower_better);
  Alcotest.(check bool) "rates gate higher-better" true
    ((th "rate.run.span_cache.hit_pct").C.direction = C.Higher_better);
  Alcotest.(check bool) "hits are informational" true
    ((th "obs.run.span_cache_hits").C.direction = C.Informational);
  (* Unknown counters fall back to the work-counter budget, so a new
     cost source is gated from its first baseline; other unknown names
     are informational. *)
  let unknown = th "obs.future.counter" in
  Alcotest.(check bool) "unknown counters gate lower-better" true
    (unknown.C.direction = C.Lower_better && unknown.C.rel_tol > 0.);
  Alcotest.(check bool) "unknown names are informational" true
    ((th "future.metric").C.direction = C.Informational)

let suite =
  [
    Alcotest.test_case "json writer canonical" `Quick writer_canonical;
    Alcotest.test_case "json writer rejects nan/inf" `Quick
      writer_rejects_non_finite;
    Alcotest.test_case "capture sanity" `Quick capture_sanity;
    Alcotest.test_case "json round trip" `Quick json_round_trip;
    Alcotest.test_case "strict reader: unknown key" `Quick
      reader_rejects_unknown_key;
    Alcotest.test_case "strict reader: future version" `Quick
      reader_rejects_future_version;
    Alcotest.test_case "strict reader: v1 rejected" `Quick reader_rejects_v1;
    Alcotest.test_case "byte identity across domains" `Quick
      domains_byte_identity;
    Alcotest.test_case "no state shared between syntheses" `Quick
      no_state_shared;
    Alcotest.test_case "file round trip" `Quick file_round_trip;
    Alcotest.test_case "load error names path" `Quick
      load_file_error_names_path;
    Alcotest.test_case "strict reader: nested unknown key" `Quick
      reader_names_nested_unknown_key;
    Alcotest.test_case "compare_files: missing file" `Quick
      compare_files_missing_file;
    Alcotest.test_case "compare_files: truncated json" `Quick
      compare_files_truncated_json;
    Alcotest.test_case "compare_files: future version" `Quick
      compare_files_future_version;
    Alcotest.test_case "compare_files: self-compare" `Quick compare_files_ok;
    Alcotest.test_case "compare: at threshold" `Quick compare_at_threshold;
    Alcotest.test_case "compare: epsilon equal" `Quick compare_epsilon_equal;
    Alcotest.test_case "compare: missing metric" `Quick compare_missing_metric;
    Alcotest.test_case "compare: directions" `Quick compare_directions;
    Alcotest.test_case "compare: golden table" `Quick compare_render_golden;
    Alcotest.test_case "compare: snapshot warnings" `Quick
      compare_snapshots_warnings;
    Alcotest.test_case "compare: injected regression" `Quick
      compare_injected_regression;
    Alcotest.test_case "compare: threshold oracle" `Quick threshold_oracle;
  ]

let cost_suite =
  [
    Alcotest.test_case "capture shape" `Quick capture_shape;
    Alcotest.test_case "metrics flatten with prefixes" `Quick metrics_flatten;
    Alcotest.test_case "byte identity across pool sizes" `Quick
      byte_identity_across_pools;
    Alcotest.test_case "json round trip (with runtime)" `Quick
      runtime_round_trip;
    Alcotest.test_case "file round trip" `Quick runtime_file_round_trip;
    Alcotest.test_case "strict reader: unknown key" `Quick
      reader_rejects_span_unknown_key;
    Alcotest.test_case "strict reader: nested unknown key" `Quick
      reader_rejects_runtime_unknown_key;
    Alcotest.test_case "strict reader: future version" `Quick
      reader_future_version_message;
    Alcotest.test_case "span tree well-formed on a real run" `Quick
      spans_well_formed_on_real_run;
    Alcotest.test_case "span checker rejects malformations" `Quick
      spans_negative_cases;
    Alcotest.test_case "obs diff: missing file" `Quick diff_unreadable_file;
    Alcotest.test_case "obs diff: truncated json" `Quick diff_truncated_runtime;
    Alcotest.test_case "obs diff: future version" `Quick diff_future_candidate;
    Alcotest.test_case "obs diff: self-compare" `Quick diff_self_compare;
    Alcotest.test_case "obs diff: injected regression" `Quick
      diff_injected_regression;
    Alcotest.test_case "obs diff: label mismatch warns" `Quick
      diff_label_mismatch_warns;
    Alcotest.test_case "obs diff: threshold budgets" `Quick threshold_budgets;
  ]
