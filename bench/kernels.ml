(* The hot paths the allocation work targeted, each with its per-run
   budget in minor-heap words. The timing table and the allocation gate
   measure this one list. *)

module T = Spice_sim.Transient
module Rc = Circuit.Rc_tree
module Buffer_lib = Circuit.Buffer_lib
module Polyfit = Numerics.Polyfit

let tech = Circuit.Tech.default
let lib = Buffer_lib.default_library

type kernel = { name : string; budget : float; run : unit -> unit }

let mk_specs n die seed =
  let rng = Util.Rng.create seed in
  List.init n (fun i ->
      {
        Sinks.name = Printf.sprintf "k%d" i;
        pos =
          Geometry.Point.make (Util.Rng.float rng die) (Util.Rng.float rng die);
        cap = Util.Rng.float_range rng 5e-15 30e-15;
      })

(* The lookups: each runs the steady-state (hit) path. *)
let hot_lookups dl =
  let b20 = Buffer_lib.by_name lib "BUF20X" in
  let cfg = Cts_config.default dl in
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
  [
    ( "hot-table: Run.span table hit",
      fun () -> ignore (Run.span dl cfg ~drive:b20 ~load_cap:5e-15) );
    ( "hot-wire: Delaylib.wire_delay",
      fun () ->
        ignore
          (Delaylib.wire_delay dl ~drive:b20 ~load_cap:5e-15 ~input_slew:90e-12
             ~length:640.) );
    ("hot-class: Delaylib.class_index", fun () -> ignore (Delaylib.class_index dl 7e-15));
    ("hot-eval3: Polyfit.eval3 (degree 3)", fun () -> ignore (Polyfit.eval3 s3 0.3 0.6 0.9));
  ]

(* One optimal-DP run evaluation on a prepared maze side: the greedy
   incumbent replayed from the side's chain, the DP in the side's
   scratch, and the pick. *)
let hot_dp dl =
  let cfg =
    Cts_config.with_insertion (Cts_config.default dl) Cts_config.Optimal_dp
  in
  let p1 = Port.of_sink (List.hd (mk_specs 25 4000. 11)) in
  let side = Run.side dl cfg p1 ~max_d:3000. in
  fun () -> ignore (Run.eval_side side 2000.)

(* The fig1.1 stage: a 1,000 um wire driven by BUF20X from the
   smallest buffer's 100 ps output. [stage load] is its RC tree at sink
   load [load]. *)
let driver () =
  let input =
    List.hd
      (Delaylib.Wave_gen.buffer_output_waves tech (Buffer_lib.smallest lib)
         ~slews:[ 100e-12 ])
  in
  T.Driven_buffer (Buffer_lib.by_name lib "BUF20X", input)

let stage load =
  let r, chain = Rc.wire tech ~length:1000. (Rc.leaf ~tag:"load" load) in
  Rc.node [ (r, chain) ]

(* The stage simulated whole, per-stage set-up then the step loop, at
   the default config (193 samples) and at characterization's (272
   samples). *)
let hot_step ?config () =
  let driver = driver () and tree = stage 5e-15 in
  fun () -> ignore (T.simulate ?config tech driver tree)

(* Characterization's lane group: the four load classes of the library
   as the lanes of one run, at characterization's config. *)
let hot_step_lanes dl =
  let driver = driver () in
  let trees = Array.map stage (Delaylib.classes dl) in
  fun () -> ignore (T.simulate_lanes ~config:Delaylib.Wave_gen.char_config tech driver trees)

(* The kernels with their per-run budgets in words. The lookups
   allocate at most their boxed float result (2 words); a boxed
   argument, a closure or a polymorphic comparison on one of these
   paths breaches. The DP kernel allocates 629 words, nearly all of it
   the boxed arguments and results of its ~73 delay-library lookups;
   boxed DP states or per-evaluation tables would cost thousands more.
   The stage simulations allocate only per-stage set-up and nothing per
   step; each budget is its set-up plus less than one word per
   (lane-)step, so one boxed float (two words) per step breaches it. At
   the default config: 1,698 words of set-up (the waveform copies of 193
   samples fit the minor heap) and 192 steps; with the early stop: 1,169
   words and 271 steps. The four-lane group: 3,539 words, and its lanes
   take 1,117 steps between them. *)
let gated dl =
  List.map (fun (name, run) -> { name; budget = 8.; run }) (hot_lookups dl)
  @ [
      { name = "hot-dp: Run.eval_side under Optimal_dp (2000um)"; budget = 2000.;
        run = hot_dp dl };
      { name = "hot-step: Transient.simulate, fig1.1 stage"; budget = 1850.;
        run = hot_step () };
      { name = "hot-step-stop: the same, stop_at 0.9, dt 1 ps"; budget = 1400.;
        run = hot_step ~config:Delaylib.Wave_gen.char_config () };
      { name = "hot-step-lanes: the four load classes as lanes"; budget = 4100.;
        run = hot_step_lanes dl };
    ]

(* One warm-up call, then loops of [n] runs, [n] doubling until a loop
   takes at least [quota] seconds: the minor-heap words per run, exact
   from [Gc.minor_words] (which counts the current minor heap too,
   where OCaml 5.1's [Gc.quick_stat] counts a minor heap only once it
   is collected), and the wall-clock seconds per run. *)
let measure ~quota k =
  k.run ();
  let rec loop n =
    let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      k.run ()
    done;
    let t1 = Unix.gettimeofday () and w1 = Gc.minor_words () in
    if t1 -. t0 >= quota then ((w1 -. w0) /. float_of_int n, (t1 -. t0) /. float_of_int n)
    else loop (2 * n)
  in
  loop 1

(* The timing table: time and minor words per run of every kernel. *)
let run dl =
  print_endline "=== kernel timings ===";
  List.iter
    (fun k ->
      let words, secs = measure ~quota:0.5 k in
      let v, unit =
        if secs >= 1e-3 then (secs *. 1e3, "ms")
        else if secs >= 1e-6 then (secs *. 1e6, "us")
        else (secs *. 1e9, "ns")
      in
      Printf.printf "  %-50s %10.2f %s/run %10.1f w/run\n%!" k.name v unit words)
    (gated dl)

(* CI gate behind `make bench-smoke`: fail when any kernel allocates
   beyond its budget, locking in the allocation-free lookups the span
   table and the flat delay-library fits bought, the flat DP tables and
   the transient step loop. *)
let alloc_gate dl =
  print_endline "=== hot-kernel allocation gate ===";
  let breaches = ref 0 in
  List.iter
    (fun k ->
      let words, _ = measure ~quota:0.05 k in
      let ok = words <= k.budget in
      if not ok then incr breaches;
      Printf.printf "  %-50s %10.1f w/run (budget %.0f) %s\n%!" k.name words k.budget
        (if ok then "ok" else "BREACH"))
    (gated dl);
  if !breaches > 0 then begin
    Printf.printf "alloc-gate: %d kernel(s) over their words/run budget\n"
      !breaches;
    exit 1
  end;
  print_endline "alloc-gate: all hot kernels within their words/run budgets"
