let json_of ~files_scanned diags =
  let open Obs_json in
  Obj
    [
      ("files_scanned", Num (float_of_int files_scanned));
      ( "diagnostics",
        Arr
          (List.map
             (fun (d : Front.diagnostic) ->
               Obj
                 [
                   ("rule", Str d.rule);
                   ("file", Str d.file);
                   ("line", Num (float_of_int d.line));
                   ("col", Num (float_of_int d.col));
                   ("message", Str d.message);
                 ])
             diags) );
    ]

let write ~path json =
  let s = Obs_json.to_string ~pretty:true json in
  if path = "-" then begin
    print_string s;
    flush stdout;
    Ok ()
  end
  else
    match open_out path with
    | oc ->
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc s);
        Ok ()
    | exception Sys_error msg -> Error msg
