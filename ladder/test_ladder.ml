(* The ladder end to end on a 13-sink instance with the fast profile:
   metric names against BENCHMARK.json, the replayed level loop against
   Cts.synthesize, seeding, failure accounting and the command line. *)

open Ladder

let profile = Delaylib.Fast

let smoke =
  {
    Workload.name = "smoke-r1";
    bench = "r1";
    scale = 0.05;
    insertion = Cts_config.Greedy;
    hstructure = Cts_config.H_none;
  }

let rep_or_fail = function
  | Ok (metrics, _) -> metrics
  | Error reason -> Alcotest.failf "rep failed: %s" reason

let declared section =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let field key item =
    match Option.map Obs_json.to_str (Obs_json.member key item) with
    | Some (Ok s) -> s
    | _ -> Alcotest.failf "BENCHMARK.json: %s entry without a string %S" section key
  in
  match Result.map (Obs_json.member section) (Obs_json.parse text) with
  | Ok (Some (Obs_json.Arr items)) ->
      List.sort compare (List.map (fun it -> (field "name" it, field "unit" it)) items)
  | _ -> Alcotest.failf "BENCHMARK.json has no %s array" section

let emitted metrics =
  List.sort compare
    (List.map (fun (m : Metric.t) -> (m.Metric.name, m.Metric.unit)) metrics)

let names_units = Alcotest.(list (pair string string))

let test_end_to_end_metrics () =
  Alcotest.check names_units "end_to_end" (declared "end_to_end")
    (emitted (rep_or_fail (Rep.run ~profile smoke ~seed:1)))

(* The traced rep is Ok only when its replayed level loop reproduced
   the traced synthesis bit for bit. *)
let test_per_layer_metrics_and_replay () =
  let t = Traced.run ~profile smoke ~seed:1 in
  Alcotest.check names_units "per_layer" (declared "per_layer")
    (emitted (rep_or_fail t.Traced.rep))

let dl = lazy (Delaylib.characterize ~profile Rep.tech Rep.library)

let test_replay_hcorrect () =
  let dl = Lazy.force dl in
  let w = { smoke with Workload.hstructure = Cts_config.H_correct } in
  let cfg = Workload.config w dl in
  let sinks = Workload.sinks w ~seed:3 in
  let res = Rep.with_pool (fun pool -> Cts.synthesize ~config:cfg ~pool dl sinks) in
  Alcotest.(check (list string)) "mismatched fields" []
    (Replay.mismatches res (Replay.synthesize dl cfg sinks))

let test_seeds () =
  List.iter
    (fun (w : Workload.t) ->
      let s1 = Workload.sinks w ~seed:1 and s2 = Workload.sinks w ~seed:2 in
      let pos = List.map (fun (s : Sinks.spec) -> s.Sinks.pos) in
      Alcotest.(check int) (w.Workload.name ^ " size") (List.length s1) (List.length s2);
      Alcotest.(check bool) (w.Workload.name ^ " differ") true (pos s1 <> pos s2);
      Alcotest.(check bool) (w.Workload.name ^ " repeat") true
        (pos s1 = pos (Workload.sinks w ~seed:1)))
    Workload.all

let test_impossible_slew () =
  let dl = Lazy.force dl in
  let cfg =
    { (Workload.config smoke dl) with Cts_config.slew_limit = 1e-12; slew_target = 1e-12 }
  in
  let rep =
    Rep.with_pool (fun pool -> Rep.measure ~pool dl cfg (Workload.sinks smoke ~seed:1))
  in
  let out = Metric.outcome [ rep ] in
  Alcotest.(check (float 0.)) "fail_frac" 1. (Metric.fail_frac out);
  Alcotest.(check int) "no summaries" 0 (List.length out.Metric.summaries)

let test_digest_mismatch () =
  let m = [ Metric.make "synth_s" "s" 1. ] in
  let out = Metric.outcome [ Ok (m, "aa"); Error "boom"; Ok (m, "bb") ] in
  Alcotest.(check (list string)) "failures"
    [ "boom"; "netlist MD5 bb differs from rep 1's aa" ]
    out.Metric.failures;
  Alcotest.(check (float 1e-12)) "fail_frac" (2. /. 3.) (Metric.fail_frac out)

let test_median () =
  Alcotest.(check (float 0.)) "odd" 2. (Metric.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 0.)) "even" 2.5 (Metric.median [ 4.; 1.; 2.; 3. ])

let check_error args fragment =
  Alcotest.test_case ("rejects " ^ String.concat " " args) `Quick (fun () ->
      match Cli.parse args with
      | Ok _ -> Alcotest.failf "accepted %s" (String.concat " " args)
      | Error msg ->
          if String.contains msg '\n' then Alcotest.failf "multi-line error %S" msg;
          let n = String.length fragment in
          let rec has i =
            i + n <= String.length msg && (String.sub msg i n = fragment || has (i + 1))
          in
          if not (has 0) then Alcotest.failf "error %S does not mention %S" msg fragment)

let test_cli_defaults () =
  match Cli.parse [ "--workload"; "dp-r1-0.3"; "--seed"; "7"; "--trace"; "1" ] with
  | Ok o ->
      Alcotest.(check (list string)) "workloads" [ "dp-r1-0.3" ]
        (List.map (fun (w : Workload.t) -> w.Workload.name) o.Cli.workloads);
      Alcotest.(check int) "seed" 7 o.Cli.seed;
      Alcotest.(check int) "reps" 5 o.Cli.reps;
      Alcotest.(check bool) "trace" true o.Cli.trace
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "ladder"
    [
      ( "ladder",
        [
          Alcotest.test_case "end-to-end metrics match BENCHMARK.json" `Quick
            test_end_to_end_metrics;
          Alcotest.test_case "per-layer metrics match BENCHMARK.json, replay identical"
            `Quick test_per_layer_metrics_and_replay;
          Alcotest.test_case "replay identical under H-correction" `Quick
            test_replay_hcorrect;
          Alcotest.test_case "seeds give distinct instances of equal size" `Quick
            test_seeds;
          Alcotest.test_case "impossible slew limit fails the rep" `Quick
            test_impossible_slew;
          Alcotest.test_case "changed netlist counts as a failure" `Quick
            test_digest_mismatch;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "command line" `Quick test_cli_defaults;
          check_error [ "--workload"; "r9" ] "r9";
          check_error [ "--workload" ] "--workload";
          check_error [ "--seed"; "abc" ] "abc";
          check_error [ "--reps"; "0" ] "at least 1";
          check_error [ "--seconds"; "-2" ] "positive";
          check_error [ "--trace"; "2" ] "0 or 1";
          check_error [ "--child" ] "exactly one";
          check_error [ "--frobnicate" ] "--frobnicate";
        ] );
    ]
