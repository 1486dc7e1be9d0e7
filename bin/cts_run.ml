(* Command-line driver for the aggressive buffered CTS flow.

   Subcommands:
     gen           generate a synthetic benchmark file (GSRC or ISPD format)
     characterize  build the delay/slew library, write its text and print
                   its held-out error
     synth         synthesize a clock tree and verify it by simulation
     baseline      merge-node-only buffered DME on the same input
     experiments   run the paper-reproduction experiment drivers
     qor           synthesize and write the run record (JSON)
     compare       gate a run record against a baseline record
     trace-check   validate a Chrome trace written by --trace *)

open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let verbose_t =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Enable debug logging.")

let domains_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Worker domains for characterization and synthesis (default: \
           $(b,CTS_DOMAINS) or the recommended domain count; 1 forces \
           sequential execution). Results are bit-identical at any value.")

let setup_domains = function
  | Some n when n >= 1 -> Parallel.set_default_size n
  | Some n ->
      Printf.eprintf "cts_run: --domains must be positive (got %d)\n" n;
      exit 1
  | None -> ()

(* Bad input is one [cts_run: ...] line and exit 1, before any work
   starts. *)
let die fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "cts_run: %s\n" msg;
      exit 1)
    fmt

(* Every file a subcommand writes goes through here: a path it cannot
   write (in a missing directory, say) is one [cts_run: ...] line and
   exit 1. *)
let write_to path write =
  match write path with
  | () -> ()
  | exception Sys_error msg -> die "cannot write %s" msg

(* Every output path is checked before any work starts: one whose
   directory is missing or not writable is one [cts_run: ...] line and
   exit 1, instead of a failure after the whole run. [write_to] still
   catches what this cannot foresee. *)
let check_outputs paths =
  List.iter
    (fun path ->
      let dir = Filename.dirname path in
      if not (Sys.file_exists dir && Sys.is_directory dir) then
        die "cannot write %s: no directory %s" path dir;
      match Unix.access dir [ Unix.W_OK ] with
      | () -> ()
      | exception Unix.Unix_error _ -> die "cannot write %s: directory %s is not writable" path dir)
    (List.filter_map Fun.id paths)

(* An invalid configuration (a NaN or infinite --slew-limit, say);
   synthesis would reject it with the same messages. *)
let check_config config =
  match Cts_config.validate config with
  | [] -> ()
  | errs -> die "invalid config: %s" (String.concat "; " errs)

(* Invalid sinks (a duplicate name, a non-positive or NaN cap, an
   infinite coordinate), before the library is even characterized. *)
let check_sinks sinks =
  match Sinks.validate sinks with
  | [] -> ()
  | errs -> die "invalid sinks: %s" (String.concat "; " errs)

let profile_t =
  let profile_conv =
    Arg.enum [ ("fast", Delaylib.Fast); ("accurate", Delaylib.Accurate) ]
  in
  Arg.(
    value & opt profile_conv Delaylib.Accurate
    & info [ "profile" ] ~docv:"PROFILE"
        ~doc:"Characterization profile: $(b,fast) or $(b,accurate).")

(* A scale outside (0, 1] is one [cts_run: ...] line and exit 1, before
   the command runs. *)
let scale_t =
  let check scale =
    if scale > 0. && scale <= 1. then scale
    else die "--scale must be in (0, 1] (got %g)" scale
  in
  Term.(
    const check
    $ Arg.(
        value & opt float 1.0
        & info [ "scale" ] ~docv:"F"
            ~doc:"Scale factor in (0,1] applied to named benchmarks."))

let bench_t =
  Arg.(
    value & opt (some string) None
    & info [ "bench" ] ~docv:"NAME"
        ~doc:"Synthetic benchmark name (r1-r5, f11-f32, fnb1).")

let file_t =
  Arg.(
    value & opt (some string) None
    & info [ "file" ] ~docv:"PATH" ~doc:"Benchmark file to read instead.")

let format_t =
  Arg.(
    value & opt (enum [ ("gsrc", `Gsrc); ("ispd", `Ispd) ]) `Gsrc
    & info [ "format" ] ~docv:"FMT" ~doc:"Benchmark file format.")

let insertion_t =
  Arg.(
    value
    & opt
        (enum [ ("greedy", Cts_config.Greedy); ("dp", Cts_config.Optimal_dp) ])
        Cts_config.Greedy
    & info [ "insertion" ] ~docv:"ENGINE"
        ~doc:
          "Buffer-insertion engine: $(b,greedy) (slew-driven walk) or \
           $(b,dp) (optimal multi-cell candidate-set DP with the greedy \
           solution as incumbent).")

let stats_t =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print observability counters, histograms and per-phase \
           timings after the run.")

let trace_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON file of the run (open in \
           chrome://tracing or Perfetto).")

(* Enable observability for the duration of [f] when --stats/--trace
   ask for it, then dump the requested outputs. Counters are
   deterministic; phase timings are wall-clock and informational. *)
let with_obs ~stats ~trace f =
  if not (stats || trace <> None) then f ()
  else begin
    Obs.reset ();
    Obs.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        let snap = Obs.snapshot () in
        Obs.set_enabled false;
        if stats then begin
          print_string (Obs.summary snap);
          let tbl = Progress.levels_table snap in
          if tbl <> "" then Printf.printf "per-level progress:\n%s" tbl
        end;
        match trace with
        | Some path ->
            write_to path (fun path -> Obs.write_trace path snap);
            Printf.printf "trace written to %s\n" path
        | None -> ())
      f
  end

let characterize profile =
  Delaylib.characterize ~profile Circuit.Tech.default
    Circuit.Buffer_lib.default_library

let descriptor_of name scale =
  let all = Bmark.Synthetic.all in
  match
    List.find_opt (fun d -> String.equal d.Bmark.Synthetic.name name) all
  with
  | Some d -> if scale < 1. then Bmark.Synthetic.scaled d scale else d
  | None ->
      die "unknown benchmark %S (known: %s)" name
        (String.concat " " (List.map (fun d -> d.Bmark.Synthetic.name) all))

let sinks_of ~bench ~file ~format ~scale =
  match (bench, file) with
  | Some name, None -> Bmark.Synthetic.sinks (descriptor_of name scale)
  | None, Some path -> (
      let text =
        match Obs_json.read_file path with Ok t -> t | Error msg -> die "%s" msg
      in
      match
        match format with
        | `Gsrc -> fst (Bmark.Gsrc_format.parse text)
        | `Ispd -> (Bmark.Ispd_format.parse text).Bmark.Ispd_format.sinks
      with
      | sinks -> sinks
      | exception (Failure msg | Invalid_argument msg) ->
          die "%s: %s" path msg)
  | None, None -> die "specify --bench or --file"
  | Some _, Some _ -> die "--bench and --file are mutually exclusive"

let report_metrics label tree (m : Ctree_sim.metrics) =
  Printf.printf "%s\n  %s\n" label (Format.asprintf "%a" Ctree.pp_summary tree);
  Printf.printf
    "  simulated: latency=%.1f ps  skew=%.1f ps  worst slew=%.1f ps (%s)  \
     settled=%b\n"
    (m.Ctree_sim.latency *. 1e12)
    (m.Ctree_sim.skew *. 1e12)
    (m.Ctree_sim.worst_slew *. 1e12)
    m.Ctree_sim.worst_slew_node m.Ctree_sim.all_settled

(* --------------------------- gen ---------------------------------- *)

let gen_cmd =
  let out_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"PATH" ~doc:"Output file.")
  in
  let run bench scale format out verbose =
    setup_logs verbose;
    check_outputs [ Some out ];
    let name = Option.value ~default:"r1" bench in
    let sinks = Bmark.Synthetic.sinks (descriptor_of name scale) in
    write_to out (fun path ->
        match format with
        | `Gsrc ->
            Bmark.Gsrc_format.write_file
              ~unit_res:Circuit.Tech.default.Circuit.Tech.unit_res
              ~unit_cap:Circuit.Tech.default.Circuit.Tech.unit_cap sinks path
        | `Ispd ->
            Bmark.Ispd_format.write_file
              (Bmark.Ispd_format.make ~slew_limit:100e-12 sinks)
              path);
    Printf.printf "wrote %d sinks to %s\n" (List.length sinks) out
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic benchmark file")
    Term.(const run $ bench_t $ scale_t $ format_t $ out_t $ verbose_t)

(* ----------------------- characterize ----------------------------- *)

let characterize_cmd =
  let out_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"PATH"
          ~doc:"Write the library's text to this file, for inspection.")
  in
  let run profile out stats trace domains verbose =
    setup_logs verbose;
    setup_domains domains;
    check_outputs [ Some out; trace ];
    with_obs ~stats ~trace @@ fun () ->
    let t0 = Unix.gettimeofday () in
    let dl = Obs.phase "characterize" (fun () -> characterize profile) in
    write_to out (fun path ->
        Out_channel.with_open_text path (fun oc ->
            output_string oc (Delaylib.to_text dl)));
    Printf.printf "characterized in %.1f s; %d fits; written to %s\n"
      (Unix.gettimeofday () -. t0)
      (List.length (Delaylib.fit_report dl))
      out;
    (* The held-out points are simulated here, after the library is
       built and timed. *)
    print_string
      (Delaylib.render_report (Obs.phase "held-out" (fun () -> Delaylib.held_out dl)))
  in
  Cmd.v
    (Cmd.info "characterize"
       ~doc:"Build the delay/slew library and write its text")
    Term.(const run $ profile_t $ out_t $ stats_t $ trace_t $ domains_t
          $ verbose_t)

(* --------------------------- synth -------------------------------- *)

let synth_cmd =
  let hstructure_t =
    Arg.(
      value
      & opt
          (enum
             [
               ("none", Cts_config.H_none);
               ("reestimate", Cts_config.H_reestimate);
               ("correct", Cts_config.H_correct);
             ])
          Cts_config.H_none
      & info [ "hstructure" ] ~docv:"MODE"
          ~doc:"H-structure handling: none, reestimate or correct.")
  in
  let deck_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "deck" ] ~docv:"PATH" ~doc:"Write a SPICE deck of the tree.")
  in
  let slew_limit_t =
    Arg.(
      value & opt float 100.
      & info [ "slew-limit" ] ~docv:"PS" ~doc:"Slew limit in picoseconds.")
  in
  let blockages_t =
    Arg.(
      value & opt int 0
      & info [ "blockages" ] ~docv:"N"
          ~doc:
            "Generate N placement macros on the synthetic benchmark \
             (buffers avoid them; wires may cross). Only with --bench.")
  in
  let svg_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "svg" ] ~docv:"PATH" ~doc:"Render the tree layout to SVG.")
  in
  let run bench file format scale profile hstructure insertion deck
      slew_limit n_blockages svg stats trace domains verbose =
    setup_logs verbose;
    setup_domains domains;
    check_outputs [ deck; svg; trace ];
    (* The body returns the exit code, so that [with_obs] writes the
       summary and the trace of a failing run too. *)
    let code = with_obs ~stats ~trace @@ fun () ->
    let sinks, blocks =
      if n_blockages > 0 then begin
        match bench with
        | Some name ->
            Bmark.Synthetic.blocked_instance (descriptor_of name scale)
              ~n_blockages
        | None -> die "--blockages requires --bench"
      end
      else (sinks_of ~bench ~file ~format ~scale, [])
    in
    check_sinks sinks;
    let dl = Obs.phase "characterize" (fun () -> characterize profile) in
    let config =
      {
        (Cts_config.default dl) with
        Cts_config.hstructure;
        insertion;
        slew_limit = slew_limit *. 1e-12;
        slew_target = 0.8 *. slew_limit *. 1e-12;
      }
    in
    check_config config;
    let t0 = Unix.gettimeofday () in
    let res =
      Obs.phase "synthesize" (fun () ->
          Cts.synthesize ~config ~blockages:blocks dl sinks)
    in
    Printf.printf "synthesized %d sinks in %.1f s (%d levels, %d flippings)\n"
      (List.length sinks)
      (Unix.gettimeofday () -. t0)
      res.Cts.levels res.Cts.flippings;
    let violations =
      Obs.phase "verify" (fun () -> Cts.verify_tree dl config res.Cts.tree)
    in
    match
      List.map Ctree_check.to_string violations
      @ Blockage.violations blocks res.Cts.tree
    with
    | _ :: _ as errs ->
        List.iter (Printf.printf "  invariant violation: %s\n") errs;
        2
    | [] ->
        let m =
          Obs.phase "simulate" (fun () ->
              Ctree_sim.simulate Circuit.Tech.default res.Cts.tree)
        in
        report_metrics "aggressive CTS result:" res.Cts.tree m;
        (match deck with
        | Some path ->
            write_to path (Ctree_netlist.write_file Circuit.Tech.default res.Cts.tree);
            Printf.printf "SPICE deck written to %s\n" path
        | None -> ());
        (match svg with
        | Some path ->
            write_to path (Ctree_svg.write_file ~blockages:blocks res.Cts.tree);
            Printf.printf "SVG written to %s\n" path
        | None -> ());
        if not m.Ctree_sim.all_settled then begin
          Printf.printf "SIMULATION DID NOT SETTLE\n";
          4
        end
        else if m.Ctree_sim.worst_slew > slew_limit *. 1e-12 then begin
          Printf.printf "SLEW LIMIT VIOLATED\n";
          3
        end
        else 0
    in
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:
         "Synthesize a buffered clock tree and verify it. Exits 2, \
          before simulating, when the tree fails the invariant check \
          (structure, stage slews, buffer input slews and the latency \
          cross-check) or places a buffer on a blockage, 3 when the \
          simulated worst slew exceeds the slew limit, and 4 when the \
          verification simulation did not settle (checked before the \
          slew, which is then not a measurement).")
    Term.(
      const run $ bench_t $ file_t $ format_t $ scale_t $ profile_t
      $ hstructure_t $ insertion_t $ deck_t $ slew_limit_t $ blockages_t
      $ svg_t $ stats_t $ trace_t $ domains_t $ verbose_t)

(* -------------------------- baseline ------------------------------ *)

let baseline_cmd =
  let run bench file format scale verbose =
    setup_logs verbose;
    let sinks = sinks_of ~bench ~file ~format ~scale in
    let tree =
      Dme.synthesize_buffered Circuit.Tech.default
        Circuit.Buffer_lib.default_library sinks
    in
    let m = Ctree_sim.simulate Circuit.Tech.default tree in
    report_metrics "merge-node-only buffered DME baseline:" tree m
  in
  Cmd.v
    (Cmd.info "baseline" ~doc:"Run the merge-node-only buffered DME baseline")
    Term.(const run $ bench_t $ file_t $ format_t $ scale_t $ verbose_t)

(* ------------------------- experiments ---------------------------- *)

let experiments_cmd =
  let names_t =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"EXPERIMENT" ~doc:"Experiment ids (default: all).")
  in
  let run names scale profile stats trace domains verbose =
    setup_logs verbose;
    setup_domains domains;
    check_outputs [ trace ];
    let todo =
      match Experiments.select names with Ok d -> d | Error msg -> die "%s" msg
    in
    with_obs ~stats ~trace @@ fun () ->
    let env =
      Obs.phase "characterize" (fun () -> Experiments.make_env ~profile ~scale ())
    in
    List.iter
      (fun (name, driver) ->
        Obs.phase ("exp:" ^ name) (fun () ->
            Printf.printf "=== %s ===\n%s\n" name (driver env)))
      todo
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Run paper-reproduction experiment drivers")
    Term.(
      const run $ names_t $ scale_t $ profile_t $ stats_t $ trace_t
      $ domains_t $ verbose_t)

(* ---------------------------- qor --------------------------------- *)

let qor_cmd =
  let out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"PATH"
          ~doc:"Write the record to this file instead of stdout.")
  in
  let runtime_t =
    Arg.(
      value & flag
      & info [ "runtime" ]
          ~doc:
            "Include the runtime section: the span tree with wall-clock \
             times and GC deltas. Off by default: runtime is \
             non-deterministic and breaks the byte-identity guarantee of \
             the record (compare ignores it either way).")
  in
  let slew_limit_t =
    Arg.(
      value & opt float 100.
      & info [ "slew-limit" ] ~docv:"PS" ~doc:"Slew limit in picoseconds.")
  in
  let run bench file format scale profile insertion slew_limit out
      with_runtime domains verbose =
    setup_logs verbose;
    setup_domains domains;
    check_outputs [ out ];
    let sinks = sinks_of ~bench ~file ~format ~scale in
    check_sinks sinks;
    let dl = characterize profile in
    let config =
      {
        (Cts_config.default dl) with
        Cts_config.insertion;
        slew_limit = slew_limit *. 1e-12;
        slew_target = 0.8 *. slew_limit *. 1e-12;
      }
    in
    check_config config;
    (* Observability starts after characterization, so the record's
       counters are synthesis alone: [delaylib.char_sims] stays out. *)
    Obs.reset ();
    Obs.set_enabled true;
    let res = Obs.phase "synthesize" (fun () -> Cts.synthesize ~config dl sinks) in
    let obs = Obs.snapshot () in
    Obs.set_enabled false;
    (match Cts.verify_tree dl config res.Cts.tree with
    | [] -> ()
    | violations ->
        List.iter
          (fun v ->
            Printf.eprintf "cts_run: invariant violation: %s\n"
              (Ctree_check.to_string v))
          violations;
        exit 2);
    let label =
      match (bench, file) with
      | Some name, _ -> name
      | None, Some path -> Filename.basename path
      | None, None -> "unnamed"
    in
    (* The engine is part of the label, so a DP record is never
       compared as a greedy one by accident. *)
    let label =
      match insertion with
      | Cts_config.Greedy -> label
      | Cts_config.Optimal_dp -> label ^ "-dp"
    in
    let q =
      Qor.capture ~label ~profile:(Delaylib.profile_name profile) ~scale ~obs
        ~runtime:with_runtime dl config res
    in
    match out with
    | Some path ->
        write_to path (fun path -> Qor.write_file path q);
        Printf.printf "QoR record written to %s\n" path
    | None -> print_string (Qor.render q)
  in
  Cmd.v
    (Cmd.info "qor"
       ~doc:
         "Synthesize and emit the versioned run record (JSON): QoR, \
          counters, gauges and histograms. Deterministic: \
          byte-identical at any --domains value. Exits 2, writing no \
          record, when the tree fails the invariant check (structure, \
          stage slews, buffer input slews and the latency \
          cross-check).")
    Term.(
      const run $ bench_t $ file_t $ format_t $ scale_t $ profile_t
      $ insertion_t $ slew_limit_t $ out_t $ runtime_t $ domains_t
      $ verbose_t)

(* -------------------------- compare ------------------------------- *)

let compare_cmd =
  let baseline_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BASELINE" ~doc:"Baseline run record (JSON).")
  in
  let candidate_t =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"CANDIDATE" ~doc:"Candidate run record (JSON).")
  in
  let run base_path cand_path =
    match Qor_compare.compare_files ~baseline:base_path cand_path with
    | Error msg ->
        Printf.eprintf "cts_run: %s\n" msg;
        exit 2
    | Ok rep ->
        print_string (Qor_compare.render rep);
        exit (Qor_compare.exit_code rep)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Compare two run records metric by metric. Exits 6 when any \
          gated metric regressed beyond its threshold, 2 when a \
          record cannot be read.")
    Term.(const run $ baseline_t $ candidate_t)

(* ------------------------- trace-check ---------------------------- *)

let trace_check_cmd =
  let file_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Trace file written by --trace.")
  in
  let run path =
    match Obs_json.read_file path with
    | Error msg ->
        Printf.eprintf "cts_run: %s\n" msg;
        exit 2
    | Ok contents -> (
        match Obs.validate_trace contents with
        | Ok n -> Printf.printf "valid trace (%d events)\n" n
        | Error msg ->
            Printf.eprintf "cts_run: %s: invalid trace: %s\n" path msg;
            exit 1)
  in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:
         "Validate a Chrome trace-event JSON file written by --trace. \
          Exits 1 when the trace is invalid, 2 when the file cannot be \
          read.")
    Term.(const run $ file_t)

let () =
  let info =
    Cmd.info "cts_run" ~version:"1.0.0"
      ~doc:"Clock tree synthesis under aggressive buffer insertion"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            gen_cmd;
            characterize_cmd;
            synth_cmd;
            baseline_cmd;
            experiments_cmd;
            qor_cmd;
            compare_cmd;
            trace_check_cmd;
          ]))
