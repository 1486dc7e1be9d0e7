(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's experiment index) and times the
   computational kernel behind each artifact with Bechamel.

   Usage:
     dune exec bench/main.exe                  -- all experiments, default scale
     dune exec bench/main.exe -- tab5.1        -- one experiment
     dune exec bench/main.exe -- --scale 1.0   -- full-size benchmarks
     dune exec bench/main.exe -- --profile fast --no-kernels
     dune exec bench/main.exe -- --profile fast --parallel-bench *)

let () =
  let known = List.map fst Experiments.all in
  let opts =
    match Cli.parse ~known (List.tl (Array.to_list Sys.argv)) with
    | Ok o when o.Cli.help ->
        print_endline (Cli.usage ~known);
        exit 0
    | Ok o -> o
    | Error msg ->
        Printf.eprintf "error: %s\n%s\n" msg (Cli.usage ~known);
        exit 1
  in
  Printf.printf "aggressive_cts benchmark harness (profile=%s, scale=%.2f)\n\n"
    (Delaylib.profile_name opts.Cli.profile)
    opts.Cli.scale;
  let observing = opts.Cli.stats || opts.Cli.trace <> None in
  if observing then begin
    Obs.reset ();
    Obs.set_enabled true
  end;
  if opts.Cli.parallel_bench then Par_bench.run ~profile:opts.Cli.profile ()
  else if opts.Cli.alloc_gate then begin
    let env =
      Experiments.make_env ~profile:opts.Cli.profile ~scale:opts.Cli.scale ()
    in
    Kernels.alloc_gate env
  end
  else begin
    let todo =
      match opts.Cli.selected with
      | [] -> Experiments.all
      | names -> List.filter (fun (n, _) -> List.mem n names) Experiments.all
    in
    let t0 = Unix.gettimeofday () in
    let env =
      Obs.phase "characterize" (fun () ->
          Experiments.make_env ~profile:opts.Cli.profile ~scale:opts.Cli.scale
            ())
    in
    Printf.printf "[delay/slew library ready in %.1f s]\n\n"
      (Unix.gettimeofday () -. t0);
    List.iter
      (fun (name, driver) ->
        let t0 = Unix.gettimeofday () in
        let text = Obs.phase ("exp:" ^ name) (fun () -> driver env) in
        Printf.printf "=== %s (%.1f s) ===\n%s\n" name
          (Unix.gettimeofday () -. t0)
          text)
      todo;
    if opts.Cli.kernels then Kernels.run env
  end;
  if observing then begin
    let snap = Obs.snapshot () in
    Obs.set_enabled false;
    if opts.Cli.stats then begin
      print_string (Obs.summary snap);
      let tbl = Progress.levels_table snap in
      if tbl <> "" then Printf.printf "per-level progress:\n%s" tbl
    end;
    match opts.Cli.trace with
    | Some path ->
        Obs.write_trace path snap;
        Printf.printf "trace written to %s\n" path
    | None -> ()
  end
