(* The domain pool (lib/parallel) and the parallel-vs-sequential oracle:
   synthesis and characterization must be bit-identical at any pool
   size. *)

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Pool unit tests                                                     *)

let test_empty_input () =
  Parallel.with_pool ~size:4 (fun p ->
      check (Alcotest.array Alcotest.int) "empty map" [||]
        (Parallel.map p (fun x -> x + 1) [||]))

let test_single_task () =
  Parallel.with_pool ~size:4 (fun p ->
      check (Alcotest.array Alcotest.int) "single" [| 42 |]
        (Parallel.map p (fun x -> x * 2) [| 21 |]))

let test_more_tasks_than_domains () =
  Parallel.with_pool ~size:3 (fun p ->
      let n = 100 in
      let input = Array.init n (fun i -> i) in
      let got = Parallel.map p (fun i -> (i * i) + 1) input in
      check (Alcotest.array Alcotest.int) "100 tasks on 3 domains"
        (Array.map (fun i -> (i * i) + 1) input)
        got)

exception Boom of int

let test_exception_propagates_pool_survives () =
  Parallel.with_pool ~size:3 (fun p ->
      (match Parallel.map p (fun i -> if i = 7 then raise (Boom i) else i) (Array.init 20 Fun.id) with
      | _ -> Alcotest.fail "expected Boom to escape Parallel.map"
      | exception Boom 7 -> ()
      | exception e -> Alcotest.fail ("wrong exception: " ^ Printexc.to_string e));
      (* The same pool must still process work afterwards. *)
      check (Alcotest.array Alcotest.int) "pool usable after exception"
        [| 2; 4; 6 |]
        (Parallel.map p (fun x -> 2 * x) [| 1; 2; 3 |]))

(* Tasks 3 and 7 both raise. The caller must always see task 3's
   exception, the one [Array.map] raises, whichever task fails first:
   task 3 sleeps before raising so that on a real pool task 7 usually
   fails first. *)
let test_lowest_index_failure_wins () =
  List.iter
    (fun size ->
      Parallel.with_pool ~size (fun p ->
          for run = 1 to 50 do
            match
              Parallel.map p
                (fun i ->
                  if i = 3 then begin
                    Unix.sleepf 0.0005;
                    raise (Boom 3)
                  end
                  else if i = 7 then raise (Boom 7)
                  else i)
                (Array.init 12 Fun.id)
            with
            | _ -> Alcotest.fail "expected Boom 3 to escape Parallel.map"
            | exception Boom 3 -> ()
            | exception e ->
                Alcotest.failf "pool of %d, run %d: got %s" size run
                  (Printexc.to_string e)
          done;
          check (Alcotest.array Alcotest.int) "pool usable after the failures"
            [| 2; 4; 6 |]
            (Parallel.map p (fun x -> 2 * x) [| 1; 2; 3 |])))
    [ 1; 4 ]

let test_size_one_matches_array_map () =
  Parallel.with_pool ~size:1 (fun p ->
      checkb "size clamps to 1" true (Parallel.size p = 1);
      let input = Array.init 37 (fun i -> float_of_int i /. 3.) in
      let f x = (x *. x) +. 1. in
      check (Alcotest.array (Alcotest.float 0.)) "pool of 1 = Array.map"
        (Array.map f input)
        (Parallel.map p f input))

(* Spawn-failure handling: [Failure] (resource exhaustion) degrades the
   pool and records the shortfall; anything else escapes [create]. The
   [spawn] hook simulates both without exhausting real domains. *)
let test_spawn_failure_degrades () =
  let spawned = ref 0 in
  let spawn f =
    if !spawned >= 1 then failwith "simulated domain exhaustion"
    else begin
      incr spawned;
      Domain.spawn f
    end
  in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled was)
    (fun () ->
      let before = Obs.read Obs.Pool_spawn_shortfall in
      let p = Parallel.create ~spawn ~size:4 () in
      Fun.protect
        ~finally:(fun () -> Parallel.shutdown p)
        (fun () ->
          check Alcotest.int "kept the workers that spawned" 2
            (Parallel.size p);
          check Alcotest.int "shortfall recorded" (before + 2)
            (Obs.read Obs.Pool_spawn_shortfall);
          check (Alcotest.array Alcotest.int) "degraded pool still works"
            [| 1; 4; 9 |]
            (Parallel.map p (fun x -> x * x) [| 1; 2; 3 |])))

exception Spawn_bug

let test_spawn_error_reraises () =
  (* A non-[Failure] exception is a genuine error, not exhaustion: the
     old blanket handler swallowed it into a silently sequential pool. *)
  match Parallel.create ~spawn:(fun _ -> raise Spawn_bug) ~size:3 () with
  | _ -> Alcotest.fail "expected Spawn_bug to escape create"
  | exception Spawn_bug -> ()

let test_map_after_shutdown_raises () =
  (* A stale handle (e.g. kept across [set_default_size]) must fail
     loudly instead of hanging on dead workers or silently running
     sequentially. *)
  let p = Parallel.create ~size:2 () in
  Parallel.shutdown p;
  match Parallel.map p (fun x -> x) [| 1; 2; 3 |] with
  | _ -> Alcotest.fail "expected Invalid_argument on shut-down pool"
  | exception Invalid_argument _ -> ()

let test_env_var_parsing () =
  check (Alcotest.option Alcotest.int) "positive" (Some 3) (Parallel.parse_size "3");
  check (Alcotest.option Alcotest.int) "one" (Some 1) (Parallel.parse_size "1");
  check (Alcotest.option Alcotest.int) "zero rejected" None (Parallel.parse_size "0");
  check (Alcotest.option Alcotest.int) "negative rejected" None (Parallel.parse_size "-2");
  check (Alcotest.option Alcotest.int) "garbage rejected" None (Parallel.parse_size "four");
  check (Alcotest.option Alcotest.int) "empty rejected" None (Parallel.parse_size "")

let test_cts_domains_forces_sequential () =
  (* CTS_DOMAINS=1 must yield a pool that degrades to plain sequential
     execution: every task runs on the calling domain. *)
  let saved = Sys.getenv_opt Parallel.env_var in
  Unix.putenv Parallel.env_var "1";
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv Parallel.env_var (Option.value ~default:"" saved))
    (fun () ->
      Parallel.with_pool (fun p ->
          checkb "sequential pool" true (Parallel.size p = 1);
          let self = Domain.self () in
          let domains =
            Parallel.map p (fun _ -> Domain.self ()) (Array.init 10 Fun.id)
          in
          checkb "all tasks ran on the calling domain" true
            (Array.for_all (fun d -> d = self) domains)))

(* ------------------------------------------------------------------ *)
(* Parallel-vs-sequential synthesis oracle                              *)

let descriptor_gen =
  (* Random small instances riding on the synthetic benchmark generator:
     deterministic in the name, varied in sink count and die. *)
  QCheck.Gen.(
    let* n = int_range 3 40 in
    let* die_k = int_range 2 10 in
    let* cluster = int_range 0 2 in
    let+ salt = int_range 0 1000 in
    {
      Bmark.Synthetic.name = Printf.sprintf "qc%d_%d" n salt;
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

let qcheck_synthesize_deterministic =
  QCheck.Test.make ~name:"synthesize: pool of 4 bit-identical to pool of 1"
    ~count:12 descriptor_arb (fun d ->
      let dl = T_env.get_dl () in
      let specs = Bmark.Synthetic.sinks d in
      let cfg =
        Cts_config.with_hstructure (Cts_config.default dl)
          Cts_config.H_reestimate
      in
      Parallel.with_pool ~size:1 (fun p1 ->
          Parallel.with_pool ~size:4 (fun p4 ->
              let seq = Cts.synthesize ~config:cfg ~pool:p1 dl specs in
              let par = Cts.synthesize ~config:cfg ~pool:p4 dl specs in
              Ctree_netlist.to_deck T_env.tech seq.Cts.tree
              = Ctree_netlist.to_deck T_env.tech par.Cts.tree
              && seq.Cts.inserted_buffers = par.Cts.inserted_buffers
              && seq.Cts.snaked_wirelength = par.Cts.snaked_wirelength
              && seq.Cts.levels = par.Cts.levels
              && seq.Cts.detoured_merges = par.Cts.detoured_merges
              && seq.Cts.flippings = par.Cts.flippings
              && seq.Cts.est_latency = par.Cts.est_latency
              && seq.Cts.est_skew = par.Cts.est_skew)))

let qcheck_bisection_deterministic =
  QCheck.Test.make ~name:"bisection: pool of 4 bit-identical to pool of 1"
    ~count:8 descriptor_arb (fun d ->
      let dl = T_env.get_dl () in
      let specs = Bmark.Synthetic.sinks d in
      Parallel.with_pool ~size:1 (fun p1 ->
          Parallel.with_pool ~size:4 (fun p4 ->
              let seq = Cts.synthesize_bisection ~pool:p1 dl specs in
              let par = Cts.synthesize_bisection ~pool:p4 dl specs in
              Ctree_netlist.to_deck T_env.tech seq.Cts.tree
              = Ctree_netlist.to_deck T_env.tech par.Cts.tree
              && seq.Cts.inserted_buffers = par.Cts.inserted_buffers
              && seq.Cts.snaked_wirelength = par.Cts.snaked_wirelength
              && seq.Cts.levels = par.Cts.levels
              && seq.Cts.est_latency = par.Cts.est_latency)))

(* The identity properties above use 3-40 sinks. Full-scale r4 (1,903
   sinks, 11 levels) runs every select inside chunked pool tasks across
   wide levels: the deck, every result field and every Obs counter,
   gauge and histogram must match between pool sizes 1 and 4. *)
let test_r4_pool_identity () =
  let dl = T_env.get_dl () in
  let specs = Bmark.Synthetic.sinks (Bmark.Synthetic.find "r4") in
  checkb "full-scale r4" true (List.length specs = 1903);
  let run size =
    Parallel.with_pool ~size (fun p ->
        Obs.reset ();
        Obs.set_enabled true;
        Fun.protect ~finally:(fun () -> Obs.set_enabled false) (fun () ->
            let res = Cts.synthesize ~pool:p dl specs in
            let snap = Obs.snapshot () in
            (res, snap)))
  in
  let seq, s1 = run 1 and par, s4 = run 4 in
  checkb "netlist decks identical" true
    (Ctree_netlist.to_deck T_env.tech seq.Cts.tree
    = Ctree_netlist.to_deck T_env.tech par.Cts.tree);
  checkb "result fields identical" true
    ({ seq with Cts.tree = par.Cts.tree } = par);
  checkb "counters identical" true (s1.Obs.counters = s4.Obs.counters);
  checkb "gauges identical" true (s1.Obs.gauges = s4.Obs.gauges);
  checkb "histograms identical" true (s1.Obs.histograms = s4.Obs.histograms);
  checkb "selects counted" true (List.assoc "maze.selects" s1.Obs.counters > 1900)

let test_characterize_deterministic () =
  (* The full Fast characterization under both pool sizes: identical
     text, so every fit coefficient and residual, in the same order. *)
  let text p =
    Delaylib.to_text
      (Delaylib.characterize ~profile:Delaylib.Fast ~pool:p T_env.tech T_env.lib)
  in
  let seq = Parallel.with_pool ~size:1 text in
  let par = Parallel.with_pool ~size:4 text in
  checkb "library texts identical" true (String.equal seq par)

(* ------------------------------------------------------------------ *)
(* Cross-oracle under the pool: analytic timing vs transient simulation,
   with the analysis itself fanned across domains to shake out any
   domain-unsafe memoization in the lookup path. *)

let qcheck_cross_oracle_under_pool =
  QCheck.Test.make ~name:"timing vs simulation agree under a 4-domain pool"
    ~count:6
    QCheck.(int_range 4 12)
    (fun n ->
      let dl = T_env.get_dl () in
      let cfg = Cts_config.default dl in
      let specs = T_env.random_sinks ~seed:(1000 + n) ~n ~die:2500. () in
      Parallel.with_pool ~size:4 (fun p ->
          let res = Cts.synthesize ~config:cfg ~pool:p dl specs in
          (* Analyze the same tree from every domain concurrently; the
             span/memo caches must give every domain the same numbers. *)
          let reports =
            Parallel.map p
              (fun _ -> Timing.analyze_tree dl cfg res.Cts.tree)
              (Array.init 8 Fun.id)
          in
          let r0 = reports.(0) in
          Array.iter
            (fun (r : Timing.report) ->
              if
                r.Timing.max_delay <> r0.Timing.max_delay
                || r.Timing.min_delay <> r0.Timing.min_delay
                || r.Timing.worst_slew <> r0.Timing.worst_slew
              then Alcotest.fail "analyze_tree not reproducible across domains")
            reports;
          let m = Ctree_sim.simulate T_env.tech res.Cts.tree in
          let lat_err =
            Float.abs (r0.Timing.max_delay -. m.Ctree_sim.latency)
          in
          (* Same tolerance regime as t_cts: the analytic model tracks
             the transient simulation to ~15% / 25 ps. *)
          lat_err <= Float.max (0.15 *. m.Ctree_sim.latency) 25e-12))

let suite ~property =
  [
    Alcotest.test_case "map on empty input" `Quick test_empty_input;
    Alcotest.test_case "single task" `Quick test_single_task;
    Alcotest.test_case "more tasks than domains" `Quick
      test_more_tasks_than_domains;
    Alcotest.test_case "worker exception propagates; pool survives" `Quick
      test_exception_propagates_pool_survives;
    Alcotest.test_case "pool of 1 equals Array.map" `Quick
      test_size_one_matches_array_map;
    Alcotest.test_case "spawn failure degrades and records shortfall" `Quick
      test_spawn_failure_degrades;
    Alcotest.test_case "non-failure spawn error re-raises" `Quick
      test_spawn_error_reraises;
    Alcotest.test_case "map on a shut-down pool raises" `Quick
      test_map_after_shutdown_raises;
    Alcotest.test_case "CTS_DOMAINS parsing" `Quick test_env_var_parsing;
    Alcotest.test_case "CTS_DOMAINS=1 forces sequential" `Quick
      test_cts_domains_forces_sequential;
    Alcotest.test_case "characterization deterministic across pool sizes"
      `Slow test_characterize_deterministic;
    property qcheck_synthesize_deterministic;
    property qcheck_bisection_deterministic;
    Alcotest.test_case "full-scale r4: pool of 4 bit-identical to pool of 1"
      `Slow test_r4_pool_identity;
    property qcheck_cross_oracle_under_pool;
    Alcotest.test_case "lowest-index failure wins at any pool size" `Quick
      test_lowest_index_failure_wins;
  ]
