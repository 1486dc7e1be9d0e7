type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of int * string

let fail pos msg = raise (Bad (pos, msg))

(* Recursive descent over the input string; [pos] is a cursor local to
   one [parse] call. *)
let parse_value s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = Stdlib.incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | Some _ | None -> ()
  in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | Some got -> fail !pos (Printf.sprintf "expected %c, got %c" c got)
    | None -> fail !pos (Printf.sprintf "expected %c, got end of input" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail !pos ("expected " ^ word)
  in
  let hex_digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail !pos "bad \\u escape"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail !pos "unterminated string"
      else
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents b
        | '\\' -> (
            if !pos >= n then fail !pos "unterminated escape"
            else
              let e = s.[!pos] in
              advance ();
              match e with
              | '"' | '\\' | '/' ->
                  Buffer.add_char b e;
                  go ()
              | 'b' -> Buffer.add_char b '\b'; go ()
              | 'f' -> Buffer.add_char b '\012'; go ()
              | 'n' -> Buffer.add_char b '\n'; go ()
              | 'r' -> Buffer.add_char b '\r'; go ()
              | 't' -> Buffer.add_char b '\t'; go ()
              | 'u' ->
                  if !pos + 4 > n then fail !pos "truncated \\u escape";
                  let code =
                    (hex_digit s.[!pos] lsl 12)
                    lor (hex_digit s.[!pos + 1] lsl 8)
                    lor (hex_digit s.[!pos + 2] lsl 4)
                    lor hex_digit s.[!pos + 3]
                  in
                  pos := !pos + 4;
                  (* Validation only cares about well-formedness; encode
                     BMP code points naively and leave surrogates as a
                     replacement byte. *)
                  if code < 0x80 then Buffer.add_char b (Char.chr code)
                  else Buffer.add_char b '?';
                  go ()
              | _ -> fail (!pos - 1) "unknown escape")
        | c when Char.code c < 0x20 -> fail (!pos - 1) "raw control character in string"
        | c ->
            Buffer.add_char b c;
            go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let numeric c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && numeric s.[!pos] do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match float_of_string_opt text with
    | Some f -> f
    | None -> fail start (Printf.sprintf "bad number %S" text)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail !pos "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let members = ref [] in
          let rec members_loop () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = value () in
            members := (key, v) :: !members;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members_loop ()
            | Some '}' -> advance ()
            | _ -> fail !pos "expected , or } in object"
          in
          members_loop ();
          Obj (List.rev !members)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [] in
          let rec items_loop () =
            let v = value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items_loop ()
            | Some ']' -> advance ()
            | _ -> fail !pos "expected , or ] in array"
          in
          items_loop ();
          Arr (List.rev !items)
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> Num (parse_number ())
    | Some c -> fail !pos (Printf.sprintf "unexpected character %c" c)
  in
  let v = value () in
  skip_ws ();
  if !pos < n then fail !pos "trailing garbage after JSON value";
  v

let parse s =
  match parse_value s with
  | v -> Ok v
  | exception Bad (pos, msg) ->
      Error (Printf.sprintf "at byte %d: %s" pos msg)

(* ------------------------------------------------------------------ *)
(* Canonical writer                                                    *)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* One fixed number format: integral values print without a fraction,
   everything else through %.12g — enough digits that values rounded to
   a fixed decimal precision upstream re-print stably, few enough that
   double rounding noise (x.000000000000001) never leaks into output. *)
let format_num f =
  if Float.is_nan f || Float.abs f = infinity then
    invalid_arg "Obs_json.to_string: NaN or infinite number"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

let to_string ?(pretty = false) v =
  let b = Buffer.create 256 in
  let pad depth = Buffer.add_string b (String.make (2 * depth) ' ') in
  let rec emit depth v =
    match v with
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Num f -> Buffer.add_string b (format_num f)
    | Str s ->
        Buffer.add_char b '"';
        Buffer.add_string b (escape s);
        Buffer.add_char b '"'
    | Arr [] -> Buffer.add_string b "[]"
    | Arr items ->
        Buffer.add_char b '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char b ',';
            if pretty then begin
              Buffer.add_char b '\n';
              pad (depth + 1)
            end;
            emit (depth + 1) item)
          items;
        if pretty then begin
          Buffer.add_char b '\n';
          pad depth
        end;
        Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj members ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_char b ',';
            if pretty then begin
              Buffer.add_char b '\n';
              pad (depth + 1)
            end;
            Buffer.add_char b '"';
            Buffer.add_string b (escape k);
            Buffer.add_string b (if pretty then "\": " else "\":");
            emit (depth + 1) item)
          members;
        if pretty then begin
          Buffer.add_char b '\n';
          pad depth
        end;
        Buffer.add_char b '}'
  in
  emit 0 v;
  if pretty then Buffer.add_char b '\n';
  Buffer.contents b

let write_file path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ~pretty:true v))

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg (* open errors name the path *)
  | ic -> (
      match
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with
      | text -> Ok text
      | exception Sys_error msg -> Error (Printf.sprintf "%s: %s" path msg)
      | exception End_of_file ->
          Error (Printf.sprintf "%s: file shrank while being read" path))

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let member key = function Obj ms -> List.assoc_opt key ms | _ -> None

let to_float = function
  | Num f -> Ok f
  | _ -> Error "expected a number"

let to_int = function
  | Num f when Float.is_integer f && Float.abs f < 1e15 ->
      Ok (int_of_float f)
  | Num _ -> Error "expected an integer"
  | _ -> Error "expected a number"

let to_str = function Str s -> Ok s | _ -> Error "expected a string"

let validate_trace s =
  match parse s with
  | Error _ as e -> e
  | Ok (Arr events) ->
      let num key members =
        match List.assoc_opt key members with Some (Num _) -> true | _ -> false
      in
      let bad =
        List.find_map
          (fun e ->
            match e with
            | Obj members -> (
                match
                  (List.assoc_opt "name" members, List.assoc_opt "ph" members)
                with
                | Some (Str _), Some (Str ph) -> (
                    (* Per-phase shape checks, per the trace-event spec:
                       complete events carry numeric ts/dur; flow events
                       (start/step/finish) carry a numeric binding id
                       and a timestamp. *)
                    match ph with
                    | "X" ->
                        if num "ts" members && num "dur" members then None
                        else
                          Some "\"X\" event lacks numeric \"ts\"/\"dur\""
                    | "s" | "t" | "f" ->
                        if num "id" members && num "ts" members then None
                        else
                          Some
                            "flow event lacks numeric \"id\"/\"ts\" members"
                    | _ -> None)
                | _, _ -> Some "event lacks string \"name\"/\"ph\" members")
            | _ -> Some "trace array element is not an object")
          events
      in
      (match bad with
      | Some msg -> Error msg
      | None -> Ok (List.length events))
  | Ok _ -> Error "top-level JSON value is not an array"
