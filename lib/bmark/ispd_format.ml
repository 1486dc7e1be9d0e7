type t = {
  sinks : Sinks.spec list;
  wirelib : (float * float) list;
  bufferlib : (string * float) list;
  blockages : Geometry.Bbox.t list;
  slew_limit : float option;
  die : (float * float * float * float) option;
}

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let tokens line =
  String.split_on_char ' ' (String.trim (strip_comment line))
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let parse text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let n = Array.length lines in
  let fail lineno msg =
    failwith (Printf.sprintf "Ispd_format.parse: line %d: %s" lineno msg)
  in
  let number lineno v =
    match float_of_string_opt v with
    | Some x -> x
    | None -> fail lineno (Printf.sprintf "expected a number, got %S" v)
  in
  let count lineno v =
    match int_of_string_opt v with
    | Some k when k >= 0 -> k
    | Some _ | None -> fail lineno (Printf.sprintf "expected a count, got %S" v)
  in
  let sinks = ref [] in
  let wirelib = ref [] in
  let bufferlib = ref [] in
  let blockages = ref [] in
  let slew_limit = ref None in
  let die = ref None in
  let i = ref 0 in
  let next_tokens () =
    (* Advance to the next non-empty line, returning its tokens. *)
    let rec go () =
      if !i >= n then None
      else begin
        let lineno = !i + 1 in
        let tk = tokens lines.(!i) in
        incr i;
        match tk with [] -> go () | _ :: _ -> Some (lineno, tk)
      end
    in
    go ()
  in
  let rec section () =
    match next_tokens () with
    | None -> ()
    | Some (lineno, tk) ->
        (match tk with
        | [ "num"; "sink"; n ] ->
            for _ = 1 to count lineno n do
              match next_tokens () with
              | Some (ln, [ id; x; y; cap ]) -> (
                  match
                    (float_of_string_opt x, float_of_string_opt y,
                     float_of_string_opt cap)
                  with
                  | Some x, Some y, Some cap ->
                      sinks :=
                        { Sinks.name = id; pos = Geometry.Point.make x y; cap }
                        :: !sinks
                  | _, _, _ -> fail ln "bad sink record")
              | Some (ln, _) -> fail ln "expected <id> <x> <y> <cap>"
              | None -> fail lineno "truncated sink section"
            done
        | [ "num"; "wirelib"; n ] ->
            for _ = 1 to count lineno n do
              match next_tokens () with
              | Some (ln, [ _idx; r; c ]) ->
                  wirelib := (number ln r, number ln c) :: !wirelib
              | Some (ln, _) -> fail ln "expected <idx> <res> <cap>"
              | None -> fail lineno "truncated wirelib section"
            done
        | [ "num"; "bufferlib"; n ] ->
            for _ = 1 to count lineno n do
              match next_tokens () with
              | Some (ln, [ _idx; name; size ]) ->
                  bufferlib := (name, number ln size) :: !bufferlib
              | Some (ln, _) -> fail ln "expected <idx> <name> <size>"
              | None -> fail lineno "truncated bufferlib section"
            done
        | [ "num"; "blockage"; n ] ->
            for _ = 1 to count lineno n do
              match next_tokens () with
              | Some (ln, [ x1; y1; x2; y2 ]) ->
                  let x1 = number ln x1 and y1 = number ln y1 in
                  let x2 = number ln x2 and y2 = number ln y2 in
                  if x1 > x2 || y1 > y2 then fail ln "inverted blockage";
                  blockages := Geometry.Bbox.make x1 y1 x2 y2 :: !blockages
              | Some (ln, _) -> fail ln "expected <x1> <y1> <x2> <y2>"
              | None -> fail lineno "truncated blockage section"
            done
        | [ "slew"; "limit"; v ] -> slew_limit := Some (number lineno v)
        | [ "die"; a; b; c; d ] ->
            die :=
              Some
                ( number lineno a,
                  number lineno b,
                  number lineno c,
                  number lineno d )
        | _ -> fail lineno "unrecognized section");
        section ()
  in
  section ();
  {
    sinks = List.rev !sinks;
    wirelib = List.rev !wirelib;
    bufferlib = List.rev !bufferlib;
    blockages = List.rev !blockages;
    slew_limit = !slew_limit;
    die = !die;
  }

let parse_file path =
  let ic = open_in path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse text

let render t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "# ISPD 2009 CNS benchmark (aggressive_cts)\n";
  (match t.die with
  | Some (a, b', c, d) -> Printf.bprintf b "die %.4f %.4f %.4f %.4f\n" a b' c d
  | None -> ());
  (match t.slew_limit with
  | Some v -> Printf.bprintf b "slew limit %.6g\n" v
  | None -> ());
  Printf.bprintf b "num sink %d\n" (List.length t.sinks);
  List.iter
    (fun (s : Sinks.spec) ->
      Printf.bprintf b "%s %.4f %.4f %.9g\n" s.Sinks.name
        s.Sinks.pos.Geometry.Point.x s.Sinks.pos.Geometry.Point.y s.Sinks.cap)
    t.sinks;
  if t.wirelib <> [] then begin
    Printf.bprintf b "num wirelib %d\n" (List.length t.wirelib);
    List.iteri
      (fun i (r, c) -> Printf.bprintf b "%d %.9g %.9g\n" (i + 1) r c)
      t.wirelib
  end;
  if t.bufferlib <> [] then begin
    Printf.bprintf b "num bufferlib %d\n" (List.length t.bufferlib);
    List.iteri
      (fun i (name, size) -> Printf.bprintf b "%d %s %.4g\n" (i + 1) name size)
      t.bufferlib
  end;
  if t.blockages <> [] then begin
    Printf.bprintf b "num blockage %d\n" (List.length t.blockages);
    List.iter
      (fun (bb : Geometry.Bbox.t) ->
        Printf.bprintf b "%.4f %.4f %.4f %.4f\n" bb.Geometry.Bbox.xmin
          bb.Geometry.Bbox.ymin bb.Geometry.Bbox.xmax bb.Geometry.Bbox.ymax)
      t.blockages
  end;
  Buffer.contents b

let write_file t path =
  let oc = open_out path in
  output_string oc (render t);
  close_out oc

let make ?slew_limit ?(blockages = []) sinks =
  { sinks; wirelib = []; bufferlib = []; blockages; slew_limit; die = None }
