(* Canonical QoR benchmark behind `make qor-gate` / `make qor-gate-dp`:
   synthesize the same small fixed instance the trace-smoke target uses
   (r1 at scale 0.05) with observability on, capture a Qor snapshot and
   write it to BENCH_qor.json (greedy insertion) or BENCH_qor_dp.json
   (optimal DP insertion) for `cts_run compare` against the committed
   baselines in bench/baselines/.

   Obs is enabled only around synthesis — after the delay library is
   loaded — so a cold vs. warm characterization cache cannot perturb
   the counters, and the snapshot stays byte-identical across runs and
   CTS_DOMAINS values. *)

let bench_name = "r1"
let bench_scale = 0.05

let run ?(insertion = Cts_config.Greedy) ~profile () =
  let profile_name =
    match profile with
    | Delaylib.Fast -> "fast"
    | Delaylib.Accurate -> "accurate"
  in
  let insertion_name = Cts_config.insertion_name insertion in
  let out_file =
    match insertion with
    | Cts_config.Greedy -> "BENCH_qor.json"
    | Cts_config.Optimal_dp -> "BENCH_qor_dp.json"
  in
  let cache = Printf.sprintf ".cache/delaylib_%s.txt" profile_name in
  (try
     if not (Sys.file_exists ".cache") then Unix.mkdir ".cache" 0o755
   with Unix.Unix_error _ -> ());
  Printf.printf
    "=== QoR snapshot (%s, scale %.2f, profile %s, insertion %s) ===\n%!"
    bench_name bench_scale profile_name insertion_name;
  let dl =
    Delaylib.load_or_characterize ~profile ~cache Circuit.Tech.default
      Circuit.Buffer_lib.default_library
  in
  let d = Bmark.Synthetic.scaled (Bmark.Synthetic.find bench_name) bench_scale in
  let sinks = Bmark.Synthetic.sinks d in
  let config = Cts_config.with_insertion (Cts_config.default dl) insertion in
  Obs.reset ();
  Obs.set_enabled true;
  let res =
    Obs.phase "synthesize" (fun () -> Cts.synthesize ~config dl sinks)
  in
  let obs = Obs.snapshot () in
  Obs.set_enabled false;
  (* The engine is part of the label so a DP snapshot can never be
     mistaken for (or compared as) a greedy one by accident. *)
  let label =
    match insertion with
    | Cts_config.Greedy -> bench_name
    | Cts_config.Optimal_dp -> bench_name ^ "-dp"
  in
  let q =
    Qor.capture ~label ~profile:profile_name ~scale:bench_scale ~obs dl config
      res
  in
  Qor.write_file out_file q;
  Printf.printf
    "  %d sinks, %d levels: skew %.1f ps, max latency %.1f ps, %d buffers\n%!"
    q.Qor.sinks q.Qor.levels q.Qor.skew_ps q.Qor.max_latency_ps
    q.Qor.buffer_count;
  List.iter
    (fun (r : Qor.buffer_type_row) ->
      Printf.printf "    %s: %d (area %.1fX)\n%!" r.Qor.cell r.Qor.count
        r.Qor.area_x)
    q.Qor.buffers_by_type;
  Printf.printf "  wrote %s\n%!" out_file

(* Cost-side twin of [run] behind `make obs-gate`: same canonical
   instance, but the artifact is the Obs_snapshot (counters, gauges,
   histograms — no runtime section, so the file is byte-identical
   across runs and CTS_DOMAINS values) written to BENCH_obs.json for
   `cts_run obs diff` against bench/baselines/BENCH_obs_fast.json. *)
let run_obs ?(insertion = Cts_config.Greedy) ~profile () =
  let profile_name =
    match profile with
    | Delaylib.Fast -> "fast"
    | Delaylib.Accurate -> "accurate"
  in
  let out_file = "BENCH_obs.json" in
  let cache = Printf.sprintf ".cache/delaylib_%s.txt" profile_name in
  (try
     if not (Sys.file_exists ".cache") then Unix.mkdir ".cache" 0o755
   with Unix.Unix_error _ -> ());
  Printf.printf
    "=== obs cost snapshot (%s, scale %.2f, profile %s) ===\n%!"
    bench_name bench_scale profile_name;
  let dl =
    Delaylib.load_or_characterize ~profile ~cache Circuit.Tech.default
      Circuit.Buffer_lib.default_library
  in
  let d = Bmark.Synthetic.scaled (Bmark.Synthetic.find bench_name) bench_scale in
  let sinks = Bmark.Synthetic.sinks d in
  let config = Cts_config.with_insertion (Cts_config.default dl) insertion in
  Obs.reset ();
  Obs.set_enabled true;
  ignore
    (Obs.phase "synthesize" (fun () -> Cts.synthesize ~config dl sinks)
      : Cts.result);
  let obs = Obs.snapshot () in
  Obs.set_enabled false;
  let label =
    match insertion with
    | Cts_config.Greedy -> bench_name
    | Cts_config.Optimal_dp -> bench_name ^ "-dp"
  in
  let snap = Obs_snapshot.of_obs ~label obs in
  Obs_snapshot.write_file out_file snap;
  let total l = List.fold_left (fun a (_, v) -> a + v) 0 l in
  Printf.printf "  %d counters (sum %d), %d gauges\n%!"
    (List.length snap.Obs_snapshot.counters)
    (total snap.Obs_snapshot.counters)
    (List.length snap.Obs_snapshot.gauges);
  List.iter
    (fun (name, pct) -> Printf.printf "    %s: %.2f%%\n%!" name pct)
    (Obs_snapshot.derived_rates snap);
  Printf.printf "  wrote %s\n%!" out_file
