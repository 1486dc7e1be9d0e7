(* Bechamel micro-benchmarks: one Test.make per paper artifact, timing the
   computational kernel that regenerates it. *)

open Bechamel
open Toolkit
module W = Waveform
module T = Spice_sim.Transient
module Rc = Circuit.Rc_tree
module Buffer_lib = Circuit.Buffer_lib
module Polyfit = Numerics.Polyfit

(* Minor-heap words allocated, read with [Gc.minor_words]. Bechamel's
   own [minor_allocated] reads [Gc.quick_stat], which on OCaml 5.1
   counts a minor heap only once it is collected: a sample that fits in
   the minor heap reads 0 however much it allocates. *)
module Minor_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "w"
end

let minor_words =
  Measure.instance (module Minor_words) (Measure.register (module Minor_words))

let mk_specs n die seed =
  let rng = Util.Rng.create seed in
  List.init n (fun i ->
      {
        Sinks.name = Printf.sprintf "k%d" i;
        pos =
          Geometry.Point.make (Util.Rng.float rng die) (Util.Rng.float rng die);
        cap = Util.Rng.float_range rng 5e-15 30e-15;
      })

let rec tests (env : Experiments.env) =
  let tech = env.Experiments.tech and dl = env.Experiments.dl in
  let lib = env.Experiments.lib in
  let b20 = Buffer_lib.by_name lib "BUF20X" in
  let input =
    Delaylib.Wave_gen.buffer_output_wave tech (Buffer_lib.smallest lib)
      ~slew:100e-12
  in
  (* fig1.1 kernel: one transient stage simulation. *)
  let t_fig11 =
    Test.make ~name:"fig1.1: stage transient sim (1000um)"
      (Staged.stage (fun () ->
           let load = Rc.leaf ~tag:"load" 5e-15 in
           let r, chain = Rc.wire tech ~length:1000. load in
           let tree = Rc.node ~tag:"out" [ (r, chain) ] in
           ignore (T.simulate tech (T.Driven_buffer (b20, input)) tree)))
  in
  (* fig3.2 kernel: waveform generation and measurement. *)
  let t_fig32 =
    Test.make ~name:"fig3.2: waveform gen + slew/delay measure"
      (Staged.stage (fun () ->
           let w = W.smooth_curve ~vdd:tech.Circuit.Tech.vdd ~slew:150e-12 () in
           ignore (W.slew_10_90 w ~vdd:tech.Circuit.Tech.vdd);
           ignore (W.crossing w 0.5)))
  in
  (* fig3.4 kernel: single-wire library lookup. *)
  let t_fig34 =
    Test.make ~name:"fig3.4: delaylib eval_single"
      (Staged.stage (fun () ->
           ignore
             (Delaylib.eval_single dl ~drive:b20 ~load_cap:5e-15
                ~input_slew:90e-12 ~length:640.)))
  in
  (* fig3.6 kernel: branch library lookup. *)
  let t_fig36 =
    Test.make ~name:"fig3.6: delaylib eval_branch"
      (Staged.stage (fun () ->
           ignore
             (Delaylib.eval_branch dl ~drive:b20 ~load_cap_left:5e-15
                ~load_cap_right:15e-15 ~input_slew:90e-12 ~len_left:400.
                ~len_right:700.)))
  in
  (* model-acc kernel: RC-tree moment analysis. *)
  let t_model =
    let load = Rc.leaf ~tag:"load" 5e-15 in
    let r, chain = Rc.wire tech ~length:1000. load in
    let tree = Rc.node [ (r, chain) ] in
    Test.make ~name:"model-acc: Elmore moment analysis"
      (Staged.stage (fun () ->
           ignore (Elmore.Moments.analyze ~source_res:200. tree)))
  in
  (* tab5.1 kernel: full synthesis of a small GSRC-like instance. *)
  let specs25 = mk_specs 25 4000. 11 in
  let t_tab51 =
    Test.make ~name:"tab5.1: CTS synthesis (25 sinks)"
      (Staged.stage (fun () -> ignore (Cts.synthesize dl specs25)))
  in
  (* tab5.2 kernel: whole-tree verification simulation. *)
  let small_tree = (Cts.synthesize dl specs25).Cts.tree in
  let t_tab52 =
    Test.make ~name:"tab5.2: whole-tree verification sim (25 sinks)"
      (Staged.stage (fun () ->
           ignore
             (Ctree_sim.simulate ~config:env.Experiments.sim_config tech
                small_tree)))
  in
  (* tab5.3 kernel: one H-corrected merge (routes 4 exploratory merges). *)
  let cfg_h =
    Cts_config.with_hstructure (Cts_config.default dl) Cts_config.H_correct
  in
  let specs16 = mk_specs 16 3000. 13 in
  let t_tab53 =
    Test.make ~name:"tab5.3: CTS with H-correction (16 sinks)"
      (Staged.stage (fun () ->
           ignore (Cts.synthesize ~config:cfg_h dl specs16)))
  in
  (* ablation kernels: run evaluation and maze selection. *)
  let p1 = Port.of_sink (List.nth specs25 0) in
  let p2 = Port.of_sink (List.nth specs25 1) in
  let cfg = Cts_config.default dl in
  let t_abl_run =
    Test.make ~name:"abl-sizing: slew-driven run eval (2000um)"
      (Staged.stage (fun () -> ignore (Run.eval dl cfg p1 2000.)))
  in
  let t_abl_maze =
    Test.make ~name:"abl-balance: bidirectional maze select"
      (Staged.stage (fun () -> ignore (Maze.select dl cfg p1 p2)))
  in
  [
    t_fig11; t_fig32; t_fig34; t_fig36; t_model; t_tab51; t_tab52; t_tab53;
    t_abl_run; t_abl_maze;
  ]
  @ List.map snd (gated_tests env)

(* Hot-path kernels: the lookups the allocation work targeted. Each
   stages the steady-state (hit) path; pair the time estimate with the
   minor-allocation column — all of them should report ~0 words/run.
   Shared with [alloc_gate], which asserts that. *)
and hot_tests (env : Experiments.env) =
  let dl = env.Experiments.dl in
  let lib = env.Experiments.lib in
  let b20 = Buffer_lib.by_name lib "BUF20X" in
  let cfg = Cts_config.default dl in
  let t_hot_table =
    Test.make ~name:"hot-table: Run.span table hit"
      (Staged.stage (fun () ->
           ignore (Run.span dl cfg ~drive:b20 ~load_cap:5e-15)))
  in
  let t_hot_wire =
    Test.make ~name:"hot-wire: Delaylib.wire_delay"
      (Staged.stage (fun () ->
           ignore
             (Delaylib.wire_delay dl ~drive:b20 ~load_cap:5e-15
                ~input_slew:90e-12 ~length:640.)))
  in
  let t_hot_class =
    Test.make ~name:"hot-class: Delaylib.class_index"
      (Staged.stage (fun () -> ignore (Delaylib.class_index dl 7e-15)))
  in
  let s3 =
    (* Any smooth trivariate sample works; the kernel cost depends only
       on the fitted degree. *)
    let pts = ref [] and vs = ref [] in
    for i = 0 to 5 do
      for j = 0 to 5 do
        for k = 0 to 5 do
          let x = float_of_int i /. 5.
          and y = float_of_int j /. 5.
          and z = float_of_int k /. 5. in
          pts := (x, y, z) :: !pts;
          vs := (x *. y) +. (0.5 *. z *. z) -. (0.25 *. x *. z) :: !vs
        done
      done
    done;
    Polyfit.fit3 ~degree:3 (Array.of_list !pts) (Array.of_list !vs)
  in
  let t_hot_eval3 =
    Test.make ~name:"hot-eval3: Polyfit.eval3 (degree 3)"
      (Staged.stage (fun () -> ignore (Polyfit.eval3 s3 0.3 0.6 0.9)))
  in
  [ t_hot_table; t_hot_wire; t_hot_class; t_hot_eval3 ]

(* One optimal-DP run evaluation on a prepared maze side: the greedy
   incumbent replayed from the side's chain, the DP in the side's
   scratch, and the pick. *)
and hot_dp_test (env : Experiments.env) =
  let dl = env.Experiments.dl in
  let cfg =
    Cts_config.with_insertion (Cts_config.default dl) Cts_config.Optimal_dp
  in
  let p1 = Port.of_sink (List.hd (mk_specs 25 4000. 11)) in
  let side = Run.side dl cfg p1 ~max_d:3000. in
  Test.make ~name:"hot-dp: Run.eval_side under Optimal_dp (2000um)"
    (Staged.stage (fun () -> ignore (Run.eval_side side 2000.)))

(* The fig1.1 stage (1,000 um wire, BUF20X) simulated whole: per-stage
   set-up, then the step loop. At the default config (769 samples) and
   at characterization's (dt = 1 ps, [stop_at = Some 0.9]: 272
   samples), where the stop check runs on every step. *)
and hot_step_test ?config ~name (env : Experiments.env) =
  let tech = env.Experiments.tech and lib = env.Experiments.lib in
  let input =
    Delaylib.Wave_gen.buffer_output_wave tech (Buffer_lib.smallest lib)
      ~slew:100e-12
  in
  let driver = T.Driven_buffer (Buffer_lib.by_name lib "BUF20X", input) in
  let r, chain = Rc.wire tech ~length:1000. (Rc.leaf ~tag:"load" 5e-15) in
  let tree = Rc.node [ (r, chain) ] in
  Test.make ~name
    (Staged.stage (fun () -> ignore (T.simulate ?config tech driver tree)))

(* Characterization's lane group on the fig1.1 stage: the four load
   classes of the library as the lanes of one run, at characterization's
   config. *)
and hot_step_lanes_test (env : Experiments.env) =
  let tech = env.Experiments.tech and lib = env.Experiments.lib in
  let input =
    Delaylib.Wave_gen.buffer_output_wave tech (Buffer_lib.smallest lib)
      ~slew:100e-12
  in
  let driver = T.Driven_buffer (Buffer_lib.by_name lib "BUF20X", input) in
  let stage load =
    let r, chain = Rc.wire tech ~length:1000. (Rc.leaf ~tag:"load" load) in
    Rc.node [ (r, chain) ]
  in
  let trees = Array.map stage (Delaylib.classes env.Experiments.dl) in
  let config = { T.default_config with T.dt = 1e-12; stop_at = Some 0.9 } in
  Test.make ~name:"hot-step-lanes: the four load classes as lanes"
    (Staged.stage (fun () -> ignore (T.simulate_lanes ~config tech driver trees)))

(* The allocation-gated kernels with their per-run budgets in words. The
   lookups allocate at most their boxed float result (2 words); the
   slack absorbs OLS estimation noise, and a boxed argument, a closure
   or a polymorphic comparison on one of these paths breaches. The DP
   kernel allocates about 630 words, nearly all of it the boxed
   arguments and results of its ~73 delay-library lookups; boxed DP
   states or per-evaluation tables would cost thousands more. The stage
   simulation allocates about 1,000-1,300 words of per-stage set-up
   (the sample rows are major-heap blocks) and nothing per step: one
   boxed float per step would add about 1,540 at the default config and
   about 540 (to ~1,800) with the early stop. The four-lane group
   allocates about 4,200 words of set-up and nothing per lane-step; its
   lanes take 1,117 steps between them, so one boxed float per
   lane-step would add about 2,230 (to ~6,400). *)
and gated_tests env =
  List.map (fun t -> (8., t)) (hot_tests env)
  @ [
      (2000., hot_dp_test env);
      (2000., hot_step_test env ~name:"hot-step: Transient.simulate, fig1.1 stage");
      ( 1550.,
        hot_step_test env ~name:"hot-step-stop: the same, stop_at 0.9, dt 1 ps"
          ~config:{ T.default_config with T.dt = 1e-12; stop_at = Some 0.9 } );
      (5000., hot_step_lanes_test env);
    ]

let run env =
  print_endline "=== kernel timings (Bechamel) ===";
  let cfg_b =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  (* Minor-heap words per run measured alongside time: the hot-path
     kernels exist precisely to keep this column at its floor. *)
  let instances = [ Instance.monotonic_clock; minor_words ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let estimate tbl name =
    match Hashtbl.find_opt tbl name with
    | Some r -> (
        match Analyze.OLS.estimates r with Some [ e ] -> Some e | _ -> None)
    | None -> None
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg_b instances test in
      let time = Analyze.all ols Instance.monotonic_clock results in
      let alloc = Analyze.all ols minor_words results in
      Hashtbl.iter
        (fun name _ ->
          let time_str =
            match estimate time name with
            | Some est ->
                let v, unit =
                  if est >= 1e6 then (est /. 1e6, "ms")
                  else if est >= 1e3 then (est /. 1e3, "us")
                  else (est, "ns")
                in
                Printf.sprintf "%10.2f %s/run" v unit
            | None -> "    (no estimate)"
          in
          let alloc_str =
            match estimate alloc name with
            | Some w -> Printf.sprintf "%10.1f w/run" w
            | None -> "   (no alloc est)"
          in
          Printf.printf "  %-50s %s %s\n" name time_str alloc_str)
        time)
    (tests env)

(* CI gate behind `make bench-smoke`: measure only the gated kernels and
   fail when any allocates beyond its budget, locking in the
   allocation-free lookups the span table and the flat delay-library
   fits bought, the flat DP tables and the transient step loop. *)
let alloc_gate env =
  print_endline "=== hot-kernel allocation gate (Bechamel) ===";
  let cfg_b =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let instances = [ minor_words ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let breaches = ref 0 and measured = ref 0 in
  List.iter
    (fun (budget, test) ->
      let results = Benchmark.all cfg_b instances test in
      let alloc = Analyze.all ols minor_words results in
      Hashtbl.iter
        (fun name r ->
          match Analyze.OLS.estimates r with
          | Some [ est ] ->
              incr measured;
              (* Clamp: OLS noise can dip below zero; a negative
                 allocation estimate is just a zero. *)
              let words = Float.max 0. est in
              let ok = words <= budget in
              if not ok then incr breaches;
              Printf.printf "  %-50s %10.1f w/run (budget %.0f) %s\n" name
                words budget
                (if ok then "ok" else "BREACH")
          | Some _ | None ->
              (* No estimate means the gate measured nothing — fail
                 loudly rather than pass silently. *)
              incr breaches;
              Printf.printf "  %-50s (no alloc estimate) BREACH\n" name)
        alloc)
    (gated_tests env);
  if !measured = 0 then begin
    print_endline "alloc-gate: no kernels measured";
    exit 1
  end;
  if !breaches > 0 then begin
    Printf.printf "alloc-gate: %d kernel(s) over their words/run budget\n"
      !breaches;
    exit 1
  end;
  print_endline "alloc-gate: all hot kernels within their words/run budgets"
