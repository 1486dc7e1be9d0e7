(* The canonical obs snapshot subsystem (Obs v2): capture shape, the
   CTS_DOMAINS byte-identity contract on the deterministic sections,
   the strict reader, span-tree well-formedness, and the cost gate's
   exit-code matrix (cts_run obs diff = Obs_diff.compare_files). *)

module J = Obs_json
module S = Obs_snapshot
module C = Qor_compare

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* One observed synthesis. *)
let synth_obs ?(pool_size = 1) ?(runtime = false) () =
  let dl = T_env.get_dl () in
  let sinks = T_env.random_sinks ~seed:19 ~n:24 ~die:2000. () in
  let config = Cts_config.default dl in
  let pool = Parallel.create ~size:pool_size () in
  Obs.reset ();
  Obs.set_enabled true;
  ignore (Cts.synthesize ~config ~pool dl sinks);
  let obs = Obs.snapshot () in
  Obs.set_enabled false;
  Parallel.shutdown pool;
  S.of_obs ~label:"t_obs_snapshot" ~runtime obs

(* --------------------------- capture ------------------------------ *)

let capture_shape () =
  let t = synth_obs () in
  Alcotest.(check int) "schema version" S.schema_version t.S.version;
  Alcotest.(check string) "label" "t_obs_snapshot" t.S.label;
  Alcotest.(check bool) "counters captured" true (t.S.counters <> []);
  Alcotest.(check bool) "gauges captured" true (t.S.gauges <> []);
  Alcotest.(check bool) "histograms captured" true (t.S.histograms <> []);
  Alcotest.(check bool) "runtime omitted by default" true (t.S.spans = []);
  let rt = synth_obs ~runtime:true () in
  Alcotest.(check bool) "runtime spans captured on request" true
    (rt.S.spans <> [])

let metrics_flatten () =
  let t = synth_obs () in
  let names = List.map fst (S.metrics t) in
  let has p = List.exists (fun n -> contains_sub ~sub:p n) names in
  Alcotest.(check bool) "plain counter names" true
    (List.mem "maze.bins_evaluated" names);
  Alcotest.(check bool) "gauge.* entries" true (has "gauge.");
  Alcotest.(check bool) "hist.*.total entries" true (has "hist.");
  Alcotest.(check bool) "rate.* entries" true (has "rate.");
  List.iter
    (fun (n, p) ->
      Alcotest.(check bool) (n ^ " is a percentage") true
        (p >= 0. && p <= 100.))
    (S.derived_rates t)

(* The acceptance criterion: the deterministic sections serialize
   byte-identically whether synthesis ran on 1 domain or 4. *)
let byte_identity_across_pools () =
  let t1 = synth_obs ~pool_size:1 () in
  let t4 = synth_obs ~pool_size:4 () in
  Alcotest.(check string) "byte-identical render" (S.render t1) (S.render t4)

(* ------------------------ strict reader --------------------------- *)

let json_round_trip () =
  let t = synth_obs ~pool_size:4 ~runtime:true () in
  let text = S.render t in
  match J.parse text with
  | Error e -> Alcotest.fail ("rendered snapshot does not parse: " ^ e)
  | Ok v -> (
      match S.of_json v with
      | Error e -> Alcotest.fail ("strict reader rejects own output: " ^ e)
      | Ok t' ->
          Alcotest.(check bool) "value round trip" true (t = t');
          Alcotest.(check string) "render is a fixed point" text (S.render t'))

let file_round_trip () =
  let t = synth_obs () in
  let path = Filename.temp_file "obs_snap" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      S.write_file path t;
      match S.load_file path with
      | Ok t' -> Alcotest.(check bool) "load_file round trip" true (t = t')
      | Error e -> Alcotest.fail e)

let reader_rejects_unknown_key () =
  let t = synth_obs () in
  match S.to_json t with
  | J.Obj ms -> (
      let spiked = J.Obj (ms @ [ ("surprise", J.Num 1.) ]) in
      match S.of_json spiked with
      | Error msg ->
          Alcotest.(check bool) "error names the key" true
            (contains_sub ~sub:"surprise" msg);
          Alcotest.(check bool) "error names the strict reader" true
            (contains_sub ~sub:"unknown field (strict reader)" msg)
      | Ok _ -> Alcotest.fail "unknown key accepted")
  | _ -> Alcotest.fail "to_json did not produce an object"

let reader_rejects_nested_unknown_key () =
  let t = synth_obs ~runtime:true () in
  match S.to_json t with
  | J.Obj ms -> (
      let spiked =
        J.Obj
          (List.map
             (fun (k, v) ->
               match (k, v) with
               | "runtime", J.Obj rs -> (k, J.Obj (rs @ [ ("kink", J.Num 0.) ]))
               | _ -> (k, v))
             ms)
      in
      match S.of_json spiked with
      | Error msg ->
          Alcotest.(check bool) "dotted path in message" true
            (contains_sub ~sub:"runtime.kink" msg)
      | Ok _ -> Alcotest.fail "nested unknown key accepted")
  | _ -> Alcotest.fail "to_json did not produce an object"

let bump_version v =
  match v with
  | J.Obj ms ->
      J.Obj
        (List.map
           (fun (k, x) ->
             if k = "obs_version" then
               (k, J.Num (float_of_int (S.schema_version + 1)))
             else (k, x))
           ms)
  | _ -> Alcotest.fail "to_json did not produce an object"

let reader_rejects_future_version () =
  let t = synth_obs () in
  match S.of_json (bump_version (S.to_json t)) with
  | Error msg ->
      Alcotest.(check bool) "error names the version field" true
        (contains_sub ~sub:"obs_version" msg)
  | Ok _ -> Alcotest.fail "future obs_version accepted"

(* -------------------- span well-formedness ------------------------ *)

let spans_well_formed_on_real_run () =
  (* 4 domains so pool-task spans exist: cross-domain siblings overlap,
     which check_spans must tolerate while still validating nesting. *)
  let t = synth_obs ~pool_size:4 ~runtime:true () in
  (match S.check_spans t with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("real span tree rejected: " ^ e));
  Alcotest.(check bool) "task spans recorded" true
    (List.exists (fun s -> s.S.name = "pool.task") t.S.spans);
  Alcotest.(check bool) "nested spans recorded" true
    (List.exists (fun s -> s.S.depth > 0) t.S.spans)

let mk ?(gc = None) ~id ~parent ~depth ~domain ~start ~dur name =
  {
    S.name;
    id;
    parent;
    depth;
    domain;
    start_ms = start;
    dur_ms = dur;
    gc;
  }

let with_spans spans =
  {
    S.version = S.schema_version;
    label = "synthetic";
    counters = [];
    gauges = [];
    histograms = [];
    spans;
  }

let expect_bad name ~sub spans =
  match S.check_spans (with_spans spans) with
  | Ok () -> Alcotest.fail (name ^ ": malformed tree accepted")
  | Error msg ->
      Alcotest.(check bool) (name ^ ": message content") true
        (contains_sub ~sub msg)

let spans_negative_cases () =
  let root = mk ~id:0 ~parent:(-1) ~depth:0 ~domain:0 ~start:0. ~dur:10. "r" in
  (* A correct two-child tree passes... *)
  (match
     S.check_spans
       (with_spans
          [
            root;
            mk ~id:1 ~parent:0 ~depth:1 ~domain:0 ~start:0. ~dur:4. "a";
            mk ~id:2 ~parent:0 ~depth:1 ~domain:0 ~start:5. ~dur:5. "b";
          ])
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
    S.check_spans
      (with_spans
         [
           root;
           mk ~id:1 ~parent:0 ~depth:1 ~domain:1 ~start:0. ~dur:6. "a";
           mk ~id:2 ~parent:0 ~depth:1 ~domain:2 ~start:5. ~dur:4. "b";
         ])
  with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("cross-domain overlap rejected: " ^ e)

(* ------------------- obs diff exit-code matrix -------------------- *)

(* [cts_run obs diff]'s exit-2 contract lives in
   [Obs_diff.compare_files]: every [Error] below is printed and mapped
   to exit 2 by the binary; a clean report exits 0 and a regressed one
   exits 6 through [Qor_compare.exit_code]. *)

let with_snapshot_file f =
  let t = synth_obs () in
  let path = Filename.temp_file "obs_snap" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      S.write_file path t;
      f t path)

let expect_diff_error name ~sub ~baseline candidate =
  match Obs_diff.compare_files ~baseline candidate with
  | Ok _ -> Alcotest.fail (name ^ ": expected an error")
  | Error msg ->
      Alcotest.(check bool) (name ^ ": message content") true
        (contains_sub ~sub msg)

let diff_missing_file () =
  with_snapshot_file (fun _ good ->
      expect_diff_error "missing baseline" ~sub:"no/such/base.json"
        ~baseline:"no/such/base.json" good;
      expect_diff_error "missing candidate" ~sub:"no/such/cand.json"
        ~baseline:good "no/such/cand.json")

let diff_truncated_json () =
  with_snapshot_file (fun _ good ->
      let bad = Filename.temp_file "obs_trunc" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove bad)
        (fun () ->
          let text =
            let ic = open_in_bin good in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          let oc = open_out_bin bad in
          output_string oc (String.sub text 0 (String.length text / 2));
          close_out oc;
          expect_diff_error "truncated candidate" ~sub:bad ~baseline:good bad))

let diff_future_version () =
  with_snapshot_file (fun t good ->
      let bad = Filename.temp_file "obs_future" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove bad)
        (fun () ->
          J.write_file bad (bump_version (S.to_json t));
          expect_diff_error "future baseline" ~sub:"obs_version" ~baseline:bad
            good))

let diff_self_compare () =
  with_snapshot_file (fun _ good ->
      match Obs_diff.compare_files ~baseline:good good with
      | Error e -> Alcotest.fail e
      | Ok rep ->
          Alcotest.(check bool) "self-compare clean" false
            (C.has_regression rep);
          Alcotest.(check int) "exit code 0" 0 (C.exit_code rep);
          Alcotest.(check int) "no warnings" 0 (List.length rep.C.warnings))

let set_counter t name v =
  {
    t with
    S.counters =
      List.map (fun (n, x) -> if n = name then (n, v) else (n, x)) t.S.counters;
  }

let diff_injected_regression () =
  let t = synth_obs () in
  (* Misses gate at max(8, 5%): a 10% jump must trip exit 6, and the
     corresponding hit counter stays informational so the moved work is
     not double-counted. *)
  let base = List.assoc "run.span_cache_misses" t.S.counters in
  let worse =
    set_counter t "run.span_cache_misses" (base + (base / 10) + 16)
  in
  let rep = Obs_diff.compare_snapshots ~baseline:t worse in
  Alcotest.(check bool) "miss jump regresses" true (C.has_regression rep);
  Alcotest.(check int) "exit 6" 6 (C.exit_code rep);
  (* Any pool-spawn shortfall is a degraded pool: budget is zero. *)
  let degraded = set_counter t "parallel.spawn_shortfall" 1 in
  let rep' = Obs_diff.compare_snapshots ~baseline:t degraded in
  Alcotest.(check int) "spawn shortfall gates at zero" 6 (C.exit_code rep')

let diff_label_mismatch_warns () =
  let t = synth_obs () in
  let other = { t with S.label = "other" } in
  let rep = Obs_diff.compare_snapshots ~baseline:t other in
  Alcotest.(check int) "label mismatch warned" 1 (List.length rep.C.warnings);
  Alcotest.(check bool) "warning is not a regression" false
    (C.has_regression rep)

let threshold_budgets () =
  let th = Obs_diff.default_threshold in
  let shortfall = th "parallel.spawn_shortfall" in
  Alcotest.(check bool) "shortfall budget is zero" true
    (shortfall.C.abs_tol = 0. && shortfall.C.rel_tol = 0.
    && shortfall.C.direction = C.Lower_better);
  Alcotest.(check bool) "rates gate higher-better" true
    ((th "rate.run.span_cache.hit_pct").C.direction = C.Higher_better);
  Alcotest.(check bool) "hits are informational" true
    ((th "run.span_cache_hits").C.direction = C.Informational);
  (* Unknown names (future counters) fall back to the work-counter
     budget, so a new cost source is gated from its first baseline. *)
  let unknown = th "future.counter" in
  Alcotest.(check bool) "unknown names gate lower-better" true
    (unknown.C.direction = C.Lower_better && unknown.C.rel_tol > 0.)

let suite =
  [
    Alcotest.test_case "capture shape" `Quick capture_shape;
    Alcotest.test_case "metrics flatten with prefixes" `Quick metrics_flatten;
    Alcotest.test_case "byte identity across pool sizes" `Quick
      byte_identity_across_pools;
    Alcotest.test_case "json round trip (with runtime)" `Quick json_round_trip;
    Alcotest.test_case "file round trip" `Quick file_round_trip;
    Alcotest.test_case "strict reader: unknown key" `Quick
      reader_rejects_unknown_key;
    Alcotest.test_case "strict reader: nested unknown key" `Quick
      reader_rejects_nested_unknown_key;
    Alcotest.test_case "strict reader: future version" `Quick
      reader_rejects_future_version;
    Alcotest.test_case "span tree well-formed on a real run" `Quick
      spans_well_formed_on_real_run;
    Alcotest.test_case "span checker rejects malformations" `Quick
      spans_negative_cases;
    Alcotest.test_case "obs diff: missing file" `Quick diff_missing_file;
    Alcotest.test_case "obs diff: truncated json" `Quick diff_truncated_json;
    Alcotest.test_case "obs diff: future version" `Quick diff_future_version;
    Alcotest.test_case "obs diff: self-compare" `Quick diff_self_compare;
    Alcotest.test_case "obs diff: injected regression" `Quick
      diff_injected_regression;
    Alcotest.test_case "obs diff: label mismatch warns" `Quick
      diff_label_mismatch_warns;
    Alcotest.test_case "obs diff: threshold budgets" `Quick threshold_budgets;
  ]
