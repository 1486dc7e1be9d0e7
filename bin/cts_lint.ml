(* The lint executable: determinism / domain-safety (L1-L5), physical units
   (U1-U4), concurrency effects (C1-C5) and exception flow (E1-E5), all
   four families in one run over one parse of the sources.

   Usage: cts_lint [--json FILE] [--raises-table] [DIR-OR-FILE ...]
   (default paths: lib bin)

   --json FILE    additionally write the diagnostics as canonical JSON
                  (Obs_json writer, stable (file,line,col,rule) order);
                  FILE may be "-" for stdout; the human-readable report
                  still goes to stdout
   --raises-table print the inferred may-raise effect table
                  ("Module.name: Exn1,Exn2" per line) and exit 0 —
                  the source of truth for [@cts.raises] contracts

   Exits 1 if any diagnostic is reported, 0 otherwise, 2 on usage
   errors, a path that does not exist or cannot be read, an unwritable
   --json path, or nothing to lint. Run from the repository root so
   that rule scoping by relative path (lib/cts_core, lib/report, ...)
   applies; paths are normalized (see Front.normalize_path), so
   ./-prefixed and absolute spellings of repository files scope
   identically. *)

let usage () =
  prerr_endline
    "usage: cts_lint [--json FILE] [--raises-table] [DIR-OR-FILE ...]";
  exit 2

let fail msg =
  Printf.eprintf "cts_lint: %s\n" msg;
  exit 2

let () =
  let raises_table = ref false in
  let json_out = ref None in
  let paths = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--raises-table" :: rest ->
        raises_table := true;
        parse_args rest
    | "--json" :: file :: rest ->
        json_out := Some file;
        parse_args rest
    | [ "--json" ] -> usage ()
    | ("--help" | "-h") :: _ -> usage ()
    | arg :: _ when String.length arg > 2 && String.sub arg 0 2 = "--" ->
        Printf.eprintf "cts_lint: unknown option %s\n" arg;
        usage ()
    | arg :: rest ->
        paths := arg :: !paths;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let args =
    match List.rev !paths with [] -> [ "lib"; "bin" ] | ps -> ps
  in
  let files =
    match Front.scan args with Ok files -> files | Error msg -> fail msg
  in
  if files = [] then
    fail ("nothing to lint under: " ^ String.concat " " args);
  let result =
    match Lint.run_paths files with
    | r -> r
    | exception Sys_error msg -> fail msg
  in
  if !raises_table then begin
    List.iter
      (fun ((m, n), exns) ->
        Printf.printf "%s.%s: %s\n" m n (String.concat "," exns))
      result.raises;
    exit 0
  end;
  let diags = result.diagnostics in
  let ml_count =
    List.length (List.filter (fun f -> Filename.check_suffix f ".ml") files)
  in
  (match !json_out with
  | None -> ()
  | Some file -> (
      let json = Lint_report.json_of ~files_scanned:ml_count diags in
      match Lint_report.write ~path:file json with
      | Ok () -> ()
      | Error msg -> fail ("cannot write JSON report: " ^ msg)));
  List.iter (fun d -> print_endline (Front.to_string d)) diags;
  match diags with
  | [] -> Printf.printf "cts_lint: %d files clean\n" ml_count
  | _ ->
      Printf.eprintf "cts_lint: %d diagnostic(s)\n" (List.length diags);
      exit 1
