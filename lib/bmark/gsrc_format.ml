type metadata = { unit_res : float option; unit_cap : float option }

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let tokens line =
  String.split_on_char ' ' (String.trim (strip_comment line))
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let parse text =
  let lines = String.split_on_char '\n' text in
  let sinks = ref [] in
  let declared = ref None in
  let unit_res = ref None and unit_cap = ref None in
  let fail lineno msg =
    failwith (Printf.sprintf "Gsrc_format.parse: line %d: %s" lineno msg)
  in
  let number lineno what v =
    match float_of_string_opt v with
    | Some x -> x
    | None ->
        fail lineno (Printf.sprintf "%s: expected a number, got %S" what v)
  in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      match tokens line with
      | [] -> ()
      | [ "NumPins"; ":"; n ] | [ "NumPins:"; n ] -> (
          match int_of_string_opt n with
          | Some k when k >= 0 -> declared := Some k
          | Some _ | None ->
              fail lineno
                (Printf.sprintf "NumPins: expected a count, got %S" n))
      | [ "UnitRes"; ":"; v ] | [ "UnitRes:"; v ] ->
          unit_res := Some (number lineno "UnitRes" v)
      | [ "UnitCap"; ":"; v ] | [ "UnitCap:"; v ] ->
          unit_cap := Some (number lineno "UnitCap" v)
      | [ x; y; cap ] -> (
          match
            (float_of_string_opt x, float_of_string_opt y,
             float_of_string_opt cap)
          with
          | Some x, Some y, Some cap ->
              sinks :=
                {
                  Sinks.name = Printf.sprintf "p%d" (List.length !sinks);
                  pos = Geometry.Point.make x y;
                  cap;
                }
                :: !sinks
          | _, _, _ -> fail lineno "expected <x> <y> <cap>")
      | [ name; x; y; cap ] -> (
          match
            (float_of_string_opt x, float_of_string_opt y,
             float_of_string_opt cap)
          with
          | Some x, Some y, Some cap ->
              sinks :=
                { Sinks.name; pos = Geometry.Point.make x y; cap } :: !sinks
          | _, _, _ -> fail lineno "expected <name> <x> <y> <cap>")
      | _ -> fail lineno "unrecognized record")
    lines;
  let sinks = List.rev !sinks in
  (match !declared with
  | Some n when n <> List.length sinks ->
      failwith
        (Printf.sprintf
           "Gsrc_format.parse: NumPins %d but %d sinks found" n
           (List.length sinks))
  | Some _ | None -> ());
  (sinks, { unit_res = !unit_res; unit_cap = !unit_cap })

let parse_file path =
  let ic = open_in path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse text

let render ?unit_res ?unit_cap sinks =
  let b = Buffer.create 1024 in
  Buffer.add_string b "# GSRC BST benchmark (aggressive_cts)\n";
  Printf.bprintf b "NumPins : %d\n" (List.length sinks);
  (match unit_res with
  | Some v -> Printf.bprintf b "UnitRes : %.9g\n" v
  | None -> ());
  (match unit_cap with
  | Some v -> Printf.bprintf b "UnitCap : %.9g\n" v
  | None -> ());
  List.iter
    (fun (s : Sinks.spec) ->
      Printf.bprintf b "%s %.4f %.4f %.9g\n" s.Sinks.name
        s.Sinks.pos.Geometry.Point.x s.Sinks.pos.Geometry.Point.y s.Sinks.cap)
    sinks;
  Buffer.contents b

let write_file ?unit_res ?unit_cap sinks path =
  let oc = open_out path in
  output_string oc (render ?unit_res ?unit_cap sinks);
  close_out oc
