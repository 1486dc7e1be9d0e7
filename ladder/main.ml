(* Sink-set-to-signoff benchmark ladder.

   Every timed rep runs in a child process of this executable, with a
   fresh heap and a setup of its own. Children run one at a
   time, round-robin across workloads, so a slow stretch of the host
   lands on every workload alike. The last line of standard output is
   one JSON object: correct, attempted, failed and the metrics' medians.

   Usage:
     dune exec ladder/main.exe                          -- every rung, 5 reps
     dune exec ladder/main.exe -- --workload dp-r1-0.3 --seed 7
     dune exec ladder/main.exe -- --trace 1             -- per-layer run *)

open Ladder

let profile = Delaylib.Accurate
let profile_name = function Delaylib.Fast -> "fast" | Delaylib.Accurate -> "accurate"

(* Chrome traces of --trace 1 runs, relative to the working directory. *)
let trace_dir = ".ladder"
let trace_file (w : Workload.t) =
  Filename.concat trace_dir (w.Workload.name ^ ".trace.json")

let cell_names =
  List.map (fun (b : Circuit.Buffer_lib.t) -> b.Circuit.Buffer_lib.name) Rep.library

(* A rep takes well under a minute; a child still running after this is
   hung, and killing it keeps the whole run inside three minutes. *)
let child_timeout = 150.

let print_rep = function
  | Ok (metrics, digest) ->
      (* %h: hexadecimal floats read back bit for bit. *)
      List.iter
        (fun (m : Metric.t) ->
          Printf.printf "metric %s %s %h\n" m.Metric.name m.Metric.unit m.Metric.value)
        metrics;
      Printf.printf "digest %s\n" digest
  | Error reason ->
      Printf.printf "fail %s\n"
        (String.map (function '\n' -> ' ' | c -> c) reason)

let child (o : Cli.opts) w =
  if o.Cli.trace then begin
    let t = Traced.run ~profile w ~seed:o.Cli.seed in
    if not (Sys.file_exists trace_dir) then Unix.mkdir trace_dir 0o755;
    Obs.write_trace (trace_file w) t.Traced.snapshot;
    print_rep t.Traced.rep
  end
  else print_rep (Rep.run ~profile w ~seed:o.Cli.seed)

let parse_child out status : Metric.rep =
  let metrics = ref [] and digest = ref None and fail = ref None in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "" ] -> ()
      | [ "metric"; name; unit; v ] -> (
          match float_of_string_opt v with
          | Some value -> metrics := Metric.make name unit value :: !metrics
          | None -> fail := Some ("unreadable metric line: " ^ line))
      | [ "digest"; d ] -> digest := Some d
      | "fail" :: reason -> fail := Some (String.concat " " reason)
      | _ -> fail := Some ("unexpected child output: " ^ line))
    (String.split_on_char '\n' out);
  match (status, !fail, !digest) with
  | _, Some reason, _ -> Error reason
  | Unix.WEXITED 0, None, Some d -> Ok (List.rev !metrics, d)
  | Unix.WEXITED 0, None, None -> Error "child printed no netlist digest"
  | Unix.WEXITED n, None, _ -> Error (Printf.sprintf "child exited with code %d" n)
  | (Unix.WSIGNALED n | Unix.WSTOPPED n), None, _ ->
      Error (Printf.sprintf "child stopped by signal %d" n)

let rec wait_pid pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_pid pid

(* Run one child and parse its standard output, killing it at the
   timeout. *)
let run_child (o : Cli.opts) (w : Workload.t) =
  let args =
    [|
      Sys.executable_name; "--child"; "--workload"; w.Workload.name; "--seed";
      string_of_int o.Cli.seed; "--trace"; (if o.Cli.trace then "1" else "0");
    |]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let out = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let deadline = Rep.now () +. child_timeout in
  let rec pump () =
    let left = deadline -. Rep.now () in
    if left <= 0. then false
    else
      match Unix.select [ rd ] [] [] left with
      | [], _, _ -> false
      | _ -> (
          match Unix.read rd chunk 0 (Bytes.length chunk) with
          | 0 -> true
          | n ->
              Buffer.add_subbytes out chunk 0 n;
              pump ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ()
  in
  let finished = pump () in
  if not finished then Unix.kill pid Sys.sigkill;
  Unix.close rd;
  let status = wait_pid pid in
  if finished then parse_child (Buffer.contents out) status
  else Error (Printf.sprintf "child timed out after %.0f s" child_timeout)

(* Rounds of one rep per workload, until --reps rounds have run or
   --seconds have passed; the traced run is a single round. *)
let run_reps (o : Cli.opts) =
  let t0 = Rep.now () in
  let reps = List.map (fun w -> (w, ref [])) o.Cli.workloads in
  let run_round () = List.iter (fun (w, acc) -> acc := run_child o w :: !acc) reps in
  let rec round k =
    let in_budget =
      match o.Cli.seconds with None -> true | Some s -> Rep.now () -. t0 < s
    in
    if k < o.Cli.reps && in_budget then begin
      run_round ();
      round (k + 1)
    end
  in
  if o.Cli.trace then run_round () else round 0;
  List.map (fun (w, acc) -> (w, Metric.outcome (List.rev !acc))) reps

let print_outcome (o : Cli.opts) (w : Workload.t) (out : Metric.outcome) =
  Printf.printf "\n%s: %d attempted, %d failed (fail_frac %g), netlist md5 %s\n"
    w.Workload.name out.Metric.attempted
    (List.length out.Metric.failures)
    (Metric.fail_frac out)
    (Option.value ~default:"-" out.Metric.digest);
  List.iter (Printf.printf "  failed: %s\n") out.Metric.failures;
  if o.Cli.trace && out.Metric.failures = [] then
    Printf.printf "  Chrome trace: %s\n" (trace_file w);
  Printf.printf "  %-26s %-6s %14s %14s %3s\n" "metric" "unit" "median" "max" "n";
  List.iter
    (fun (s : Metric.summary) ->
      Printf.printf "  %-26s %-6s %14.6g %14.6g %3d\n" s.Metric.s_name
        s.Metric.s_unit s.Metric.median s.Metric.max s.Metric.n)
    out.Metric.summaries

let json_record (o : Cli.opts) outcomes =
  let open Obs_json in
  let num x = Num x and int n = Num (float_of_int n) in
  let tech = Rep.tech in
  Obj
    [
      ("profile", Str (profile_name profile));
      ( "tech",
        Obj
          [
            ("vdd_v", num tech.Circuit.Tech.vdd);
            ("unit_res_ohm_per_um", num tech.Circuit.Tech.unit_res);
            ("unit_cap_f_per_um", num tech.Circuit.Tech.unit_cap);
          ] );
      ("library", Arr (List.map (fun n -> Str n) cell_names));
      ("seed", int o.Cli.seed);
      ("trace", Bool o.Cli.trace);
      ( "workloads",
        Arr
          (List.map
             (fun ((w : Workload.t), (out : Metric.outcome)) ->
               Obj
                 [
                   ("name", Str w.Workload.name);
                   ("attempted", int out.Metric.attempted);
                   ("failed", int (List.length out.Metric.failures));
                   ("fail_frac", num (Metric.fail_frac out));
                   ( "netlist_md5",
                     match out.Metric.digest with Some d -> Str d | None -> Null );
                   ("failures", Arr (List.map (fun f -> Str f) out.Metric.failures));
                   ( "metrics",
                     Arr
                       (List.map
                          (fun (s : Metric.summary) ->
                            Obj
                              [
                                ("name", Str s.Metric.s_name);
                                ("unit", Str s.Metric.s_unit);
                                ("median", num s.Metric.median);
                                ("max", num s.Metric.max);
                                ("n", int s.Metric.n);
                              ])
                          out.Metric.summaries) );
                 ])
             outcomes) );
    ]

(* Metric keys are bare with one workload, "workload/metric" with more. *)
let result_line outcomes =
  let single = List.length outcomes = 1 in
  let quote s = "\"" ^ Obs_json.escape s ^ "\"" in
  let metrics =
    List.concat_map
      (fun ((w : Workload.t), (out : Metric.outcome)) ->
        List.map
          (fun (s : Metric.summary) ->
            let key =
              if single then s.Metric.s_name
              else w.Workload.name ^ "/" ^ s.Metric.s_name
            in
            Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (quote key)
              s.Metric.median (quote s.Metric.s_unit))
          out.Metric.summaries)
      outcomes
  in
  let sum f = List.fold_left (fun acc (_, out) -> acc + f out) 0 outcomes in
  let attempted = sum (fun out -> out.Metric.attempted) in
  let failed = sum (fun out -> List.length out.Metric.failures) in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (failed = 0 && attempted > 0)
    attempted failed (String.concat ", " metrics)

let () =
  let o =
    match Cli.parse (List.tl (Array.to_list Sys.argv)) with
    | Ok o when o.Cli.help ->
        print_endline Cli.usage;
        exit 0
    | Ok o -> o
    | Error msg ->
        Printf.eprintf "error: %s\n%s\n" msg Cli.usage;
        exit 1
  in
  if o.Cli.child then child o (List.hd o.Cli.workloads)
  else begin
    Printf.printf "ladder: profile %s, tech vdd %g V, library %s, seed %d, %s\n%!"
      (profile_name profile) Rep.tech.Circuit.Tech.vdd
      (String.concat " " cell_names)
      o.Cli.seed
      (if o.Cli.trace then "traced run" else Printf.sprintf "up to %d reps" o.Cli.reps);
    let outcomes = run_reps o in
    List.iter (fun (w, out) -> print_outcome o w out) outcomes;
    Option.iter
      (fun path -> Obs_json.write_file path (json_record o outcomes))
      o.Cli.json;
    print_endline (result_line outcomes)
  end
