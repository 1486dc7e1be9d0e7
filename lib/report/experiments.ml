module W = Waveform
module T = Spice_sim.Transient
module Rc = Circuit.Rc_tree
module Buffer_lib = Circuit.Buffer_lib

type env = {
  tech : Circuit.Tech.t;
  lib : Circuit.Buffer_lib.t list;
  dl : Delaylib.t;
  scale : float;
  sim_config : T.config;
}

let make_env ?(profile = Delaylib.Accurate) ?(scale = 1.) () =
  let tech = Circuit.Tech.default in
  let lib = Buffer_lib.default_library in
  let cache = Delaylib.cache_file profile in
  let dl = Delaylib.load_or_characterize ~profile ~cache tech lib in
  { tech; lib; dl; scale; sim_config = { T.default_config with T.dt = 1e-12 } }

let bench_of env d = if env.scale >= 1. then d else Bmark.Synthetic.scaled d env.scale

(* ------------------------------------------------------------------ *)
(* FIG-1.1: wire output slew vs length, 20X vs 30X drivers.            *)

let fig1_1_rows env =
  let slew_for drive len =
    let load = Rc.leaf ~tag:"load" (Buffer_lib.input_cap env.tech (List.hd env.lib)) in
    let r, chain = Rc.wire env.tech ~length:len load in
    let tree = Rc.node ~tag:"out" [ (r, chain) ] in
    let input = Delaylib.Wave_gen.buffer_output_wave env.tech (Buffer_lib.smallest env.lib) ~slew:100e-12 in
    let res = T.simulate ~config:env.sim_config env.tech (T.Driven_buffer (drive, input)) tree in
    match T.node_slew res ~tag:"load" with Some s -> s | None -> Float.infinity
  in
  let b20 = Buffer_lib.by_name env.lib "BUF20X" in
  let b30 = Buffer_lib.by_name env.lib "BUF30X" in
  List.map
    (fun len -> (len, slew_for b20 len, slew_for b30 len))
    [ 400.; 800.; 1200.; 1600.; 2000.; 2400.; 2800.; 3200.; 3600.; 4000. ]

let fig1_1 env =
  let rows = fig1_1_rows env in
  "FIG-1.1  Wire output slew vs. wire length (input slew 100 ps)\n"
  ^ Tables.render
      ~header:[ "length (um)"; "slew @20X (ps)"; "slew @30X (ps)" ]
      (List.map
         (fun (l, s20, s30) -> [ Tables.um l; Tables.ps s20; Tables.ps s30 ])
         rows)
  ^ "Shape check: slew grows superlinearly; upsizing 20X->30X buys only a \
     modest reduction.\n"

(* ------------------------------------------------------------------ *)
(* FIG-3.2: curve vs ramp inputs of identical 150 ps slew.             *)

let fig3_2_data env =
  let slew = 150e-12 in
  let vdd = env.tech.Circuit.Tech.vdd in
  let buffer = Buffer_lib.by_name env.lib "BUF10X" in
  let measure input =
    let load = Rc.leaf ~tag:"load" 5e-15 in
    let r, chain = Rc.wire env.tech ~length:400. load in
    let tree = Rc.node ~tag:"out" [ (r, chain) ] in
    let res = T.simulate ~config:env.sim_config env.tech (T.Driven_buffer (buffer, input)) tree in
    let w = T.waveform res "load" in
    let in_slew = Option.get (W.slew_10_90 input ~vdd) in
    (* Align the two inputs at their 10% crossings, as in Fig. 3.2: an
       equal-slew ramp standing in for the real curve mis-places the
       whole downstream edge. *)
    let t_ref = Option.get (W.crossing input (0.1 *. vdd)) in
    let t50 = Option.get (W.crossing w (0.5 *. vdd)) in
    (in_slew, t50 -. t_ref)
  in
  (* The "curved" input is a real buffer-output waveform, produced exactly
     as in Fig. 3.1: an input buffer plus a wire tuned to the target slew. *)
  let curve =
    measure
      (Delaylib.Wave_gen.buffer_output_wave env.tech
         (Buffer_lib.by_name env.lib "BUF10X")
         ~slew)
  in
  let ramp = measure (W.ramp ~vdd ~slew ()) in
  (curve, ramp)

let fig3_2_shift env =
  let (_, d_curve), (_, d_ramp) = fig3_2_data env in
  Float.abs (d_curve -. d_ramp)

let fig3_2 env =
  let (s_curve, d_curve), (s_ramp, d_ramp) = fig3_2_data env in
  "FIG-3.2  Curve vs. ramp input (identical 150 ps slew)\n"
  ^ Tables.render
      ~header:[ "input"; "10-90 slew (ps)"; "input 10% -> output 50% (ps)" ]
      [
        [ "curved (buffer-like)"; Tables.ps s_curve; Tables.ps d_curve ];
        [ "ideal ramp"; Tables.ps s_ramp; Tables.ps d_ramp ];
      ]
  ^ Printf.sprintf
      "Output shift between equal-slew inputs: %s ps (paper: 32 ps) — ramp \
       approximations misprice real waveforms.\n"
      (Tables.ps (Float.abs (d_curve -. d_ramp)))

(* ------------------------------------------------------------------ *)
(* FIG-3.4: buffer intrinsic delay surface.                            *)

let fig3_4 env =
  let drive = Buffer_lib.by_name env.lib "BUF10X" in
  let slew_lo, slew_hi = Delaylib.slew_domain env.dl in
  let len_lo, len_hi = Delaylib.len_domain env.dl in
  let n = 6 in
  let slews = List.init (n + 1) (fun i -> slew_lo +. (float_of_int i /. float_of_int n *. (slew_hi -. slew_lo))) in
  let lens = List.init (n + 1) (fun i -> len_lo +. (float_of_int i /. float_of_int n *. (len_hi -. len_lo))) in
  let header = "slew \\ len (um)" :: List.map Tables.um lens in
  let rows =
    List.map
      (fun s ->
        Tables.ps s
        :: List.map
             (fun l ->
               let e =
                 Delaylib.eval_single env.dl ~drive ~load_cap:0.75e-15
                   ~input_slew:s ~length:l
               in
               Tables.ps e.Delaylib.buf_delay)
             lens)
      slews
  in
  "FIG-3.4  10X buffer intrinsic delay (ps) vs input slew (rows, ps) and \
   wire length (columns)\n"
  ^ Tables.render ~header rows
  ^ "Shape check: intrinsic delay rises with input slew (several ps swing) \
     and varies with load length.\n"

(* ------------------------------------------------------------------ *)
(* FIG-3.6/3.7: branch wire delays.                                    *)

let fig3_6 env =
  let drive = Buffer_lib.by_name env.lib "BUF20X" in
  let lens = [ 100.; 325.; 550.; 775.; 1000. ] in
  let grid pick =
    List.map
      (fun l_left ->
        Tables.um l_left
        :: List.map
             (fun l_right ->
               let b =
                 Delaylib.eval_branch env.dl ~drive ~load_cap_left:0.75e-15
                   ~load_cap_right:0.75e-15 ~input_slew:80e-12
                   ~len_left:l_left ~len_right:l_right
               in
               Tables.ps (pick b))
             lens)
      lens
  in
  let header = "Lleft \\ Lright" :: List.map Tables.um lens in
  "FIG-3.6  Left-branch wire delay (ps) vs (L_left rows, L_right columns), \
   20X driver, 80 ps input slew\n"
  ^ Tables.render ~header (grid (fun b -> b.Delaylib.delay_left))
  ^ "\nFIG-3.7  Right-branch wire delay (ps), same axes\n"
  ^ Tables.render ~header (grid (fun b -> b.Delaylib.delay_right))
  ^ "Shape check: each branch's wire delay is dominated by its own length; \
     the sibling branch's load is absorbed mostly by the shared driver (it \
     slows the driver edge, which the intrinsic-delay surface captures), \
     leaving only a mild cross-coupling here.\n"

(* ------------------------------------------------------------------ *)
(* MODEL-ACC: Elmore / moment metrics / library vs simulator.          *)

let model_accuracy env =
  let drive = Buffer_lib.by_name env.lib "BUF20X" in
  let vdd = env.tech.Circuit.Tech.vdd in
  let rows =
    List.map
      (fun len ->
        let load_cap = 5e-15 in
        let input = Delaylib.Wave_gen.buffer_output_wave env.tech (Buffer_lib.smallest env.lib) ~slew:80e-12 in
        let load = Rc.leaf ~tag:"load" load_cap in
        let r, chain = Rc.wire env.tech ~length:len load in
        let tree = Rc.node ~tag:"out" [ (r, chain) ] in
        let res = T.simulate ~config:env.sim_config env.tech (T.Driven_buffer (drive, input)) tree in
        let out = T.root_waveform res in
        let sim_wire =
          Option.get (W.delay_50 out (T.waveform res "load") ~vdd)
        in
        let sim_slew = Option.get (T.node_slew res ~tag:"load") in
        (* Moment metrics of the wire driven behind the buffer's switch
           resistance. *)
        let m =
          Elmore.Moments.analyze
            ~source_res:(Buffer_lib.drive_resistance env.tech drive)
            tree
        in
        let lib_e =
          Delaylib.eval_single env.dl ~drive ~load_cap ~input_slew:80e-12
            ~length:len
        in
        [
          Tables.um len;
          Tables.ps sim_wire;
          Tables.ps (Elmore.Moments.elmore m "load");
          Tables.ps (Elmore.Moments.d2m m "load");
          Tables.ps lib_e.Delaylib.wire_delay;
          Tables.ps sim_slew;
          Tables.ps (Elmore.Moments.ramp_slew m "load" ~input_slew:80e-12);
          Tables.ps lib_e.Delaylib.wire_slew;
        ])
      [ 150.; 300.; 500.; 750.; 1000.; 1400. ]
  in
  "MODEL-ACC  Wire delay & slew: simulator vs closed-form metrics vs \
   delay/slew library (20X driver, 80 ps input slew)\n"
  ^ Tables.render
      ~header:
        [
          "len (um)"; "sim delay"; "Elmore"; "D2M"; "library"; "sim slew";
          "PERI-style"; "library";
        ]
      rows
  ^ "Shape check: Elmore overestimates; D2M is closer; the characterized \
     library tracks the simulator within ~1-2 ps.\n"

(* ------------------------------------------------------------------ *)
(* CTS benchmark tables.                                               *)

type cts_row = {
  bench : string;
  n_sinks : int;
  worst_slew : float;
  skew : float;
  latency : float;
  wirelength : float;
  n_buffers : int;
  baseline_skew : float option;
  baseline_slew : float option;
  runtime : float;
}

let run_gsrc_row env ?(baseline = true) d =
  let d = bench_of env d in
  let specs = Bmark.Synthetic.sinks d in
  let t0 = Unix.gettimeofday () in
  let res = Cts.synthesize env.dl specs in
  let runtime = Unix.gettimeofday () -. t0 in
  let m = Ctree_sim.simulate ~config:env.sim_config env.tech res.Cts.tree in
  let baseline_skew, baseline_slew =
    if baseline then begin
      let btree = Dme.synthesize_buffered env.tech env.lib specs in
      let bm = Ctree_sim.simulate ~config:env.sim_config env.tech btree in
      (Some bm.Ctree_sim.skew, Some bm.Ctree_sim.worst_slew)
    end
    else (None, None)
  in
  {
    bench = d.Bmark.Synthetic.name;
    n_sinks = d.Bmark.Synthetic.n_sinks;
    worst_slew = m.Ctree_sim.worst_slew;
    skew = m.Ctree_sim.skew;
    latency = m.Ctree_sim.latency;
    wirelength = Ctree.total_wirelength res.Cts.tree;
    n_buffers = Ctree.n_buffers res.Cts.tree;
    baseline_skew;
    baseline_slew;
    runtime;
  }

let cts_table title note rows =
  title ^ "\n"
  ^ Tables.render
      ~header:
        [
          "bench"; "#sinks"; "worst slew (ps)"; "skew (ps)"; "latency (ns)";
          "wirelen (um)"; "#bufs"; "DME skew (ps)"; "DME slew (ps)"; "syn (s)";
        ]
      (List.map
         (fun r ->
           [
             r.bench;
             string_of_int r.n_sinks;
             Tables.ps r.worst_slew;
             Tables.ps r.skew;
             Tables.ns r.latency;
             Tables.um r.wirelength;
             string_of_int r.n_buffers;
             (match r.baseline_skew with Some s -> Tables.ps s | None -> "-");
             (match r.baseline_slew with Some s -> Tables.ps s | None -> "-");
             Printf.sprintf "%.1f" r.runtime;
           ])
         rows)
  ^ note

let tab5_1 env =
  let rows = List.map (run_gsrc_row env ~baseline:true) Bmark.Synthetic.gsrc in
  cts_table
    "TAB-5.1  GSRC benchmarks: aggressive buffered CTS vs merge-node-only \
     buffered DME"
    "Shape check: every worst slew is within the 100 ps limit; the \
     merge-node-only baseline violates slew on large dies; skews stay \
     comparable to prior buffered CTS.\n"
    rows

let tab5_2 env =
  let rows = List.map (run_gsrc_row env ~baseline:false) Bmark.Synthetic.ispd in
  cts_table "TAB-5.2  ISPD 2009 benchmarks: aggressive buffered CTS"
    "Shape check: slew within limit on very large dies; skew a few percent \
     of max latency.\n"
    rows

(* ------------------------------------------------------------------ *)
(* TAB-5.3: H-structure corrections.                                   *)

type h_row = {
  h_bench : string;
  skew_orig : float;
  skew_reest : float;
  skew_corr : float;
  flippings : int;
}

let tab5_3_rows env =
  let run d mode =
    let specs = Bmark.Synthetic.sinks d in
    let config =
      Cts_config.with_hstructure (Cts_config.default env.dl) mode
    in
    let res = Cts.synthesize ~config env.dl specs in
    let m = Ctree_sim.simulate ~config:env.sim_config env.tech res.Cts.tree in
    (m.Ctree_sim.skew, res.Cts.flippings)
  in
  List.map
    (fun d ->
      let d = bench_of env d in
      let skew_orig, _ = run d Cts_config.H_none in
      let skew_reest, _ = run d Cts_config.H_reestimate in
      let skew_corr, flippings = run d Cts_config.H_correct in
      { h_bench = d.Bmark.Synthetic.name; skew_orig; skew_reest; skew_corr; flippings })
    Bmark.Synthetic.all

let tab5_3 env =
  let rows = tab5_3_rows env in
  let ratio a b = (a -. b) /. b in
  let avg f =
    List.fold_left (fun acc r -> acc +. f r) 0. rows
    /. float_of_int (List.length rows)
  in
  "TAB-5.3  H-structure corrections (skews from simulation)\n"
  ^ Tables.render
      ~header:
        [
          "bench"; "orig skew (ps)"; "re-est (ps)"; "ratio"; "corr (ps)";
          "ratio"; "#flippings";
        ]
      (List.map
         (fun r ->
           [
             r.h_bench;
             Tables.ps r.skew_orig;
             Tables.ps r.skew_reest;
             Tables.pct (ratio r.skew_reest r.skew_orig);
             Tables.ps r.skew_corr;
             Tables.pct (ratio r.skew_corr r.skew_orig);
             string_of_int r.flippings;
           ])
         rows)
  ^ Printf.sprintf
      "Average ratio: re-estimation %s, correction %s (paper: -2.43%% and \
       -6.13%%; correction should win on average).\n"
      (Tables.pct (avg (fun r -> ratio r.skew_reest r.skew_orig)))
      (Tables.pct (avg (fun r -> ratio r.skew_corr r.skew_orig)))

(* ------------------------------------------------------------------ *)
(* Ablations.                                                          *)

let abl_benches env =
  List.map (bench_of env)
    [ List.nth Bmark.Synthetic.gsrc 0; List.nth Bmark.Synthetic.gsrc 2 ]

let abl_run env config d =
  let specs = Bmark.Synthetic.sinks d in
  let res = Cts.synthesize ~config env.dl specs in
  let m = Ctree_sim.simulate ~config:env.sim_config env.tech res.Cts.tree in
  (res, m)

let abl_sizing env =
  let base = Cts_config.default env.dl in
  let variants =
    [
      ("intelligent (default)", base);
      ("always smallest type", { base with Cts_config.prefer_small_within = 1e9 });
      ("always max-span type", { base with Cts_config.prefer_small_within = 0. });
    ]
  in
  let rows =
    List.concat_map
      (fun d ->
        List.map
          (fun (label, config) ->
            let res, m = abl_run env config d in
            [
              d.Bmark.Synthetic.name;
              label;
              string_of_int (Ctree.n_buffers res.Cts.tree);
              Tables.um (Ctree.total_wirelength res.Cts.tree);
              Tables.ps m.Ctree_sim.worst_slew;
              Tables.ps m.Ctree_sim.skew;
            ])
          variants)
      (abl_benches env)
  in
  "ABL-SIZING  Intelligent look-ahead buffer sizing vs fixed policies\n"
  ^ Tables.render
      ~header:[ "bench"; "policy"; "#bufs"; "wirelen"; "worst slew"; "skew" ]
      rows
  ^ "Shape check: the smallest-only policy needs many more buffers; \
     intelligent sizing meets slew with fewer.\n"

let abl_balance env =
  let base = Cts_config.default env.dl in
  let variants =
    [
      ("full (default)", base);
      ("no balance stage", { base with Cts_config.enable_balance = false });
      ("no binary search", { base with Cts_config.enable_binary_search = false });
    ]
  in
  let rows =
    List.concat_map
      (fun d ->
        List.map
          (fun (label, config) ->
            let res, m = abl_run env config d in
            [
              d.Bmark.Synthetic.name;
              label;
              Tables.ps m.Ctree_sim.skew;
              Tables.ps m.Ctree_sim.worst_slew;
              Tables.um res.Cts.snaked_wirelength;
            ])
          variants)
      (abl_benches env)
  in
  "ABL-BALANCE  Merge-routing stages switched off individually\n"
  ^ Tables.render
      ~header:[ "bench"; "variant"; "skew"; "worst slew"; "snaked wl" ]
      rows
  ^ "Shape check: dropping either stage degrades skew.\n"

let abl_topology env =
  let rows =
    List.concat_map
      (fun d ->
        let specs = Bmark.Synthetic.sinks d in
        let evaluate label res =
          let m = Ctree_sim.simulate ~config:env.sim_config env.tech res.Cts.tree in
          [
            d.Bmark.Synthetic.name;
            label;
            Tables.ps m.Ctree_sim.skew;
            Tables.ps m.Ctree_sim.worst_slew;
            Tables.um (Ctree.total_wirelength res.Cts.tree);
            string_of_int (Ctree.n_buffers res.Cts.tree);
          ]
        in
        [
          evaluate "levelized NN matching" (Cts.synthesize env.dl specs);
          evaluate "recursive bisection" (Cts.synthesize_bisection env.dl specs);
        ])
      (abl_benches env)
  in
  "ABL-TOPOLOGY  Dynamic levelized topology (Sec. 4.1.1) vs a fixed \
   recursive-bisection topology\n"
  ^ Tables.render
      ~header:[ "bench"; "topology"; "skew"; "worst slew"; "wirelen"; "#bufs" ]
      rows
  ^ "Shape check: both topologies meet the slew limit; neither dominates \
     on skew across benchmarks — topology choice is a trade, which is why \
     the paper adds H-structure correction on top of the dynamic one.\n"

(* ------------------------------------------------------------------ *)
(* Extensions.                                                         *)

let ext_corners env =
  let d = bench_of env (List.nth Bmark.Synthetic.gsrc 0) in
  let specs = Bmark.Synthetic.sinks d in
  let tree = (Cts.synthesize env.dl specs).Cts.tree in
  let btree = Dme.synthesize_buffered env.tech env.lib specs in
  let corners =
    [
      ("nominal", env.tech);
      ("slow (drive -10%)",
       { env.tech with Circuit.Tech.k_per_x = 0.9 *. env.tech.Circuit.Tech.k_per_x });
      ("fast (drive +10%)",
       { env.tech with Circuit.Tech.k_per_x = 1.1 *. env.tech.Circuit.Tech.k_per_x });
      ("RC +10%",
       { env.tech with
         Circuit.Tech.unit_res = 1.1 *. env.tech.Circuit.Tech.unit_res;
         unit_cap = 1.1 *. env.tech.Circuit.Tech.unit_cap });
      ("RC -10%",
       { env.tech with
         Circuit.Tech.unit_res = 0.9 *. env.tech.Circuit.Tech.unit_res;
         unit_cap = 0.9 *. env.tech.Circuit.Tech.unit_cap });
    ]
  in
  let rows =
    List.concat_map
      (fun (label, tech') ->
        let m = Ctree_sim.simulate ~config:env.sim_config tech' tree in
        let bm = Ctree_sim.simulate ~config:env.sim_config tech' btree in
        [
          [
            d.Bmark.Synthetic.name; label; Tables.ps m.Ctree_sim.skew;
            Tables.ps m.Ctree_sim.worst_slew; Tables.ns m.Ctree_sim.latency;
            Tables.ps bm.Ctree_sim.skew; Tables.ps bm.Ctree_sim.worst_slew;
          ];
        ])
      corners
  in
  "EXT-CORNERS  Nominal-synthesized trees re-simulated at process corners\n"
  ^ Tables.render
      ~header:
        [
          "bench"; "corner"; "skew (ps)"; "worst slew (ps)"; "latency (ns)";
          "DME skew"; "DME slew";
        ]
      rows
  ^ "Shape check: slew stays within limit across corners for the \
     aggressive tree; skew shifts stay bounded because buffers are shared \
     by construction along paths.\n"

let ext_power env =
  let rows =
    List.map
      (fun d ->
        let d = bench_of env d in
        let specs = Bmark.Synthetic.sinks d in
        let tree = (Cts.synthesize env.dl specs).Cts.tree in
        let btree = Dme.synthesize_buffered env.tech env.lib specs in
        let cb = Ctree.capacitance_breakdown env.tech tree in
        let p t = Ctree.dynamic_power env.tech ~freq:1e9 t *. 1e3 in
        [
          d.Bmark.Synthetic.name;
          Tables.um (Ctree.total_wirelength tree);
          string_of_int (Ctree.n_buffers tree);
          Printf.sprintf "%.1f" (cb.Ctree.wire_cap *. 1e12);
          Printf.sprintf "%.1f" (cb.Ctree.buffer_cap *. 1e12);
          Printf.sprintf "%.2f" (p tree);
          Printf.sprintf "%.2f" (p btree);
        ])
      Bmark.Synthetic.gsrc
  in
  "EXT-POWER  Clock network capacitance and 1 GHz dynamic power\n"
  ^ Tables.render
      ~header:
        [
          "bench"; "wirelen (um)"; "#bufs"; "wire cap (pF)"; "buf cap (pF)";
          "power (mW)"; "DME power (mW)";
        ]
      rows
  ^ "Wire capacitance dominates; aggressive insertion spends buffers to \
     buy slew, not to burn power.\n"

let abl_slew env =
  let d = bench_of env (List.nth Bmark.Synthetic.gsrc 0) in
  let specs = Bmark.Synthetic.sinks d in
  let rows =
    List.map
      (fun limit_ps ->
        let limit = limit_ps *. 1e-12 in
        let config =
          {
            (Cts_config.default env.dl) with
            Cts_config.slew_limit = limit;
            slew_target = 0.8 *. limit;
          }
        in
        let res = Cts.synthesize ~config env.dl specs in
        let m = Ctree_sim.simulate ~config:env.sim_config env.tech res.Cts.tree in
        [
          Printf.sprintf "%.0f" limit_ps;
          string_of_int (Ctree.n_buffers res.Cts.tree);
          Tables.um (Ctree.total_wirelength res.Cts.tree);
          Tables.ps m.Ctree_sim.worst_slew;
          (if m.Ctree_sim.worst_slew <= limit then "yes" else "NO");
          Tables.ps m.Ctree_sim.skew;
          Tables.ns m.Ctree_sim.latency;
        ])
      [ 60.; 80.; 100.; 140. ]
  in
  Printf.sprintf
    "ABL-SLEW  Constraint tightness sweep on %s: buffers bought per ps of \
     slew budget\n"
    d.Bmark.Synthetic.name
  ^ Tables.render
      ~header:
        [
          "slew limit (ps)"; "#bufs"; "wirelen"; "worst slew"; "met"; "skew";
          "latency (ns)";
        ]
      rows
  ^ "Shape check: tighter limits demand more buffers (shorter spans) and \
     raise latency; the limit is honoured across the sweep.\n"

let ext_blockage env =
  let d = bench_of env (Bmark.Synthetic.find "f31") in
  let specs_free = Bmark.Synthetic.sinks d in
  let specs_blk, blocks = Bmark.Synthetic.blocked_instance d ~n_blockages:4 in
  let free = Cts.synthesize env.dl specs_free in
  let blocked = Cts.synthesize ~blockages:blocks env.dl specs_blk in
  let violations = Blockage.violations blocks blocked.Cts.tree in
  let row label (res : Cts.result) viol =
    let m = Ctree_sim.simulate ~config:env.sim_config env.tech res.Cts.tree in
    [
      label;
      string_of_int (Ctree.n_buffers res.Cts.tree);
      Tables.um (Ctree.total_wirelength res.Cts.tree);
      Tables.ps m.Ctree_sim.worst_slew;
      Tables.ps m.Ctree_sim.skew;
      string_of_int viol;
    ]
  in
  Printf.sprintf
    "EXT-BLOCKAGE  Buffer legalization against %d macros on %s (ISPD'09 \
     rules: wires may cross, buffers may not)\n"
    (List.length blocks) d.Bmark.Synthetic.name
  ^ Tables.render
      ~header:
        [ "variant"; "#bufs"; "wirelen"; "worst slew"; "skew"; "violations" ]
      [
        row "no blockages" free 0;
        row "4 macros, legalized" blocked (List.length violations);
      ]
  ^ "Shape check: zero buffers inside macros, slew still met, modest \
     wirelength/skew cost.\n"

let ext_bst env =
  let d = bench_of env (List.nth Bmark.Synthetic.gsrc 0) in
  (* Stress the balancer: spread sink caps over 1..150 fF so zero-skew
     merging must snake wire. *)
  let specs =
    List.mapi
      (fun i (s : Sinks.spec) ->
        { s with Sinks.cap = 1e-15 +. (float_of_int (i mod 30) *. 5e-15) })
      (Bmark.Synthetic.sinks d)
  in
  let rows =
    List.map
      (fun bound_ps ->
        let bound = bound_ps *. 1e-12 in
        let tree = Dme.synthesize_bounded ~skew_bound:bound env.tech specs in
        let skew = Dme.elmore_skew env.tech tree in
        [
          Printf.sprintf "%.0f" bound_ps;
          Tables.um (Ctree.total_wirelength tree);
          Tables.ps skew;
          (if skew <= bound +. 1e-13 then "yes" else "NO");
        ])
      [ 0.; 10.; 25.; 50.; 100. ]
  in
  Printf.sprintf
    "EXT-BST  Bounded-skew DME (ref [4]) on a cap-stressed %s: skew budget \
     vs wirelength\n" d.Bmark.Synthetic.name
  ^ Tables.render
      ~header:
        [ "skew bound (ps)"; "wirelength (um)"; "Elmore skew (ps)"; "met" ]
      rows
  ^ "Shape check: the bound is honoured at every setting; loosening it \
     saves the wire zero-skew merging snakes. The saving is small here \
     because the delay-aware nearest-neighbour pairing already avoids most \
     imbalance — the budget matters when topology freedom is constrained.\n"

let ext_useful_skew env =
  let d = bench_of env (List.nth Bmark.Synthetic.gsrc 0) in
  let specs = Bmark.Synthetic.sinks d in
  (* Schedule every 5th sink 50 ps late (time borrowing into the next
     pipeline stage). *)
  let offsets =
    List.filteri (fun i _ -> i mod 5 = 0) specs
    |> List.map (fun (s : Sinks.spec) -> (s.Sinks.name, 50e-12))
  in
  let config = { (Cts_config.default env.dl) with Cts_config.sink_offsets = offsets } in
  let res = Cts.synthesize ~config env.dl specs in
  let m = Ctree_sim.simulate ~config:env.sim_config env.tech res.Cts.tree in
  let group sel =
    List.filter_map
      (fun (n, dl') -> if sel n then Some dl' else None)
      m.Ctree_sim.sink_delays
  in
  let offset_names = List.map fst offsets in
  let late = group (fun n -> List.mem n offset_names) in
  let on_time = group (fun n -> not (List.mem n offset_names)) in
  let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
  let adj =
    List.map
      (fun (n, dl') ->
        dl' -. (if List.mem n offset_names then 50e-12 else 0.))
      m.Ctree_sim.sink_delays
  in
  let adj_skew =
    match adj with
    | [] -> 0.
    | d :: _ ->
        List.fold_left Float.max d adj -. List.fold_left Float.min d adj
  in
  Printf.sprintf
    "EXT-USEFUL-SKEW  Scheduled arrivals on %s: %d of %d sinks targeted +50 \
     ps\n" d.Bmark.Synthetic.name (List.length offsets) (List.length specs)
  ^ Tables.render
      ~header:[ "group"; "mean arrival (ps)"; "count" ]
      [
        [ "on-time sinks"; Tables.ps (mean on_time);
          string_of_int (List.length on_time) ];
        [ "+50 ps sinks"; Tables.ps (mean late);
          string_of_int (List.length late) ];
      ]
  ^ Printf.sprintf
      "Group separation: %s ps (target 50); offset-adjusted skew: %s ps; \
       worst slew %s ps (limit still honoured).\n"
      (Tables.ps (mean late -. mean on_time))
      (Tables.ps adj_skew)
      (Tables.ps m.Ctree_sim.worst_slew)

let all =
  [
    ("fig1.1", fig1_1);
    ("fig3.2", fig3_2);
    ("fig3.4", fig3_4);
    ("fig3.6", fig3_6);
    ("model-acc", model_accuracy);
    ("tab5.1", tab5_1);
    ("tab5.2", tab5_2);
    ("tab5.3", tab5_3);
    ("abl-sizing", abl_sizing);
    ("abl-balance", abl_balance);
    ("abl-topology", abl_topology);
    ("abl-slew", abl_slew);
    ("ext-corners", ext_corners);
    ("ext-power", ext_power);
    ("ext-blockage", ext_blockage);
    ("ext-useful-skew", ext_useful_skew);
    ("ext-bst", ext_bst);
  ]

let select = function
  | [] -> Ok all
  | names -> (
      match List.find_opt (fun n -> not (List.mem_assoc n all)) names with
      | Some n ->
          Error
            (Printf.sprintf "unknown experiment %S (known: %s)" n
               (String.concat " " (List.map fst all)))
      | None -> Ok (List.filter (fun (n, _) -> List.mem n names) all))
