(* Bechamel kernels: the hot paths the allocation work targeted, each
   with its per-run budget in minor-heap words. The timing table and
   the allocation gate measure this one list. *)

open Bechamel
open Toolkit
module T = Spice_sim.Transient
module Rc = Circuit.Rc_tree
module Buffer_lib = Circuit.Buffer_lib
module Polyfit = Numerics.Polyfit

let tech = Circuit.Tech.default
let lib = Buffer_lib.default_library

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

(* The lookups: each stages the steady-state (hit) path. *)
let hot_lookups dl =
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
let hot_dp dl =
  let cfg =
    Cts_config.with_insertion (Cts_config.default dl) Cts_config.Optimal_dp
  in
  let p1 = Port.of_sink (List.hd (mk_specs 25 4000. 11)) in
  let side = Run.side dl cfg p1 ~max_d:3000. in
  Test.make ~name:"hot-dp: Run.eval_side under Optimal_dp (2000um)"
    (Staged.stage (fun () -> ignore (Run.eval_side side 2000.)))

(* The fig1.1 stage: a 1,000 um wire driven by BUF20X from the
   smallest buffer's 100 ps output. [stage load] is its RC tree at sink
   load [load]. *)
let driver () =
  let input =
    Delaylib.Wave_gen.buffer_output_wave tech (Buffer_lib.smallest lib)
      ~slew:100e-12
  in
  T.Driven_buffer (Buffer_lib.by_name lib "BUF20X", input)

let stage load =
  let r, chain = Rc.wire tech ~length:1000. (Rc.leaf ~tag:"load" load) in
  Rc.node [ (r, chain) ]

(* Characterization's config: dt 1 ps and [stop_at = Some 0.9], where
   the stop check runs on every step. *)
let char_config = { T.default_config with T.dt = 1e-12; stop_at = Some 0.9 }

(* The stage simulated whole, per-stage set-up then the step loop, at
   the default config (769 samples) and at characterization's (272
   samples). *)
let hot_step ?config ~name () =
  let driver = driver () and tree = stage 5e-15 in
  Test.make ~name
    (Staged.stage (fun () -> ignore (T.simulate ?config tech driver tree)))

(* Characterization's lane group: the four load classes of the library
   as the lanes of one run, at characterization's config. *)
let hot_step_lanes dl =
  let driver = driver () in
  let trees = Array.map stage (Delaylib.classes dl) in
  Test.make ~name:"hot-step-lanes: the four load classes as lanes"
    (Staged.stage (fun () ->
         ignore (T.simulate_lanes ~config:char_config tech driver trees)))

(* The kernels with their per-run budgets in words. The lookups
   allocate at most their boxed float result (2 words); the slack
   absorbs OLS estimation noise, and a boxed argument, a closure or a
   polymorphic comparison on one of these paths breaches. The DP
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
let gated dl =
  List.map (fun t -> (8., t)) (hot_lookups dl)
  @ [
      (2000., hot_dp dl);
      (2000., hot_step ~name:"hot-step: Transient.simulate, fig1.1 stage" ());
      ( 1550.,
        hot_step ~name:"hot-step-stop: the same, stop_at 0.9, dt 1 ps"
          ~config:char_config () );
      (5000., hot_step_lanes dl);
    ]

(* Runs one kernel under [instances]; the result maps each of them to
   its OLS estimate per run, [None] where the fit gives none. *)
let measure instances test =
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Benchmark.all cfg instances test in
  fun instance ->
    match Hashtbl.find_opt (Analyze.all ols instance results) (Test.name test) with
    | Some r -> (
        match Analyze.OLS.estimates r with Some [ e ] -> Some e | _ -> None)
    | None -> None

(* The timing table: time and minor words per run of every kernel. *)
let run dl =
  print_endline "=== kernel timings (Bechamel) ===";
  List.iter
    (fun (_, test) ->
      let per_run = measure [ Instance.monotonic_clock; minor_words ] test in
      let time_str =
        match per_run Instance.monotonic_clock with
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
        match per_run minor_words with
        | Some w -> Printf.sprintf "%10.1f w/run" w
        | None -> "   (no alloc est)"
      in
      Printf.printf "  %-50s %s %s\n" (Test.name test) time_str alloc_str)
    (gated dl)

(* CI gate behind `make bench-smoke`: measure minor words alone and
   fail when any kernel allocates beyond its budget, locking in the
   allocation-free lookups the span table and the flat delay-library
   fits bought, the flat DP tables and the transient step loop. *)
let alloc_gate dl =
  print_endline "=== hot-kernel allocation gate (Bechamel) ===";
  let breaches = ref 0 in
  List.iter
    (fun (budget, test) ->
      let name = Test.name test in
      match measure [ minor_words ] test minor_words with
      | Some est ->
          (* Clamp: OLS noise can dip below zero; a negative allocation
             estimate is just a zero. *)
          let words = Float.max 0. est in
          let ok = words <= budget in
          if not ok then incr breaches;
          Printf.printf "  %-50s %10.1f w/run (budget %.0f) %s\n" name words
            budget
            (if ok then "ok" else "BREACH")
      | None ->
          (* No estimate means the gate measured nothing — fail loudly
             rather than pass silently. *)
          incr breaches;
          Printf.printf "  %-50s (no alloc estimate) BREACH\n" name)
    (gated dl);
  if !breaches > 0 then begin
    Printf.printf "alloc-gate: %d kernel(s) over their words/run budget\n"
      !breaches;
    exit 1
  end;
  print_endline "alloc-gate: all hot kernels within their words/run budgets"
