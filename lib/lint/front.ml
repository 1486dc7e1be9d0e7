(* The one front end of the four lint families. See front.mli.

   Everything a family needs before its own walk is built here once:
   the parsed sources, module names and aliases, the top-level
   definitions, and the summary table, fixpoint and reachability walk
   that the interprocedural families (C, E, and L1 through C's
   summaries) run over. *)

open Parsetree

(* ------------------------------------------------------------------ *)
(* Diagnostics                                                         *)

type diagnostic = {
  rule : string;
  file : string;
  line : int;
  col : int;
  message : string;
}

let diag rule file (loc : Location.t) message =
  let p = loc.Location.loc_start in
  {
    rule;
    file;
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    message;
  }

let to_string d =
  Printf.sprintf "%s:%d:%d: [%s] %s" d.file d.line d.col d.rule d.message

(* The documented report order: position first, rule as a tie-break.
   (Bare polymorphic compare on the record would sort by [rule] first —
   the field order — interleaving files in the report.) *)
let compare_diagnostic a b =
  let c = compare a.file b.file in
  if c <> 0 then c
  else
    let c = compare a.line b.line in
    if c <> 0 then c
    else
      let c = compare a.col b.col in
      if c <> 0 then c
      else
        let c = compare a.rule b.rule in
        if c <> 0 then c else compare a.message b.message

let sort_diagnostics ds = List.sort_uniq compare_diagnostic ds

(* ------------------------------------------------------------------ *)
(* Paths and files                                                     *)

(* Rule scoping keys off paths relative to the repository root, like
   "lib/cts_core/cts.ml". When cts_lint is invoked from outside the
   root, or with "./"-prefixed or absolute arguments, the raw path
   would defeat every prefix test, so normalization re-roots each path
   at the last segment naming a known top-level source directory. A
   path containing none of them (a file outside any checkout) is only
   cleaned of "." and ".." segments. *)

let top_level_dirs = [ "lib"; "bin"; "bench"; "test"; "examples" ]

let normalize_path path =
  let segs =
    List.filter
      (fun s -> s <> "" && s <> ".")
      (String.split_on_char '/' path)
  in
  let segs =
    (* Resolve ".." against a preceding real segment where possible. *)
    List.rev
      (List.fold_left
         (fun acc s ->
           match (s, acc) with
           | "..", p :: tl when p <> ".." -> tl
           | _ -> s :: acc)
         [] segs)
  in
  let root_at =
    let rec go i best = function
      | [] -> best
      | s :: tl ->
          go (i + 1) (if List.mem s top_level_dirs then Some i else best) tl
    in
    go 0 None segs
  in
  let segs =
    match root_at with
    | Some i -> List.filteri (fun j _ -> j >= i) segs
    | None -> segs
  in
  String.concat "/" segs

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let has_suffix suf s =
  let ls = String.length s and l = String.length suf in
  ls >= l && String.sub s (ls - l) l = suf

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let is_source path =
  Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"

let scan paths =
  let rec all acc paths =
    List.fold_left (fun acc p -> Result.bind acc (fun acc -> go acc p)) acc paths
  and go acc path =
    match Sys.is_directory path with
    | exception Sys_error msg -> Error msg
    | false -> Ok (if is_source path then path :: acc else acc)
    | true -> (
        match Sys.readdir path with
        | exception Sys_error msg -> Error msg
        | entries ->
            Array.to_list entries
            |> List.filter (fun e ->
                   e <> "_build" && e <> ".git" && not (has_prefix "." e))
            |> List.map (Filename.concat path)
            |> all (Ok acc))
  in
  Result.map (List.sort compare) (all (Ok []) paths)

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

type ast = Impl of structure | Intf of signature

type file = {
  path : string;
  modname : string;
  text : string;
  ast : ast option;
  aliases : (string * string) list;
}

type def = {
  file : file;
  name : string;
  expr : expression;
  attrs : attributes;
  loc : Location.t;
}

type t = { files : file list; defs : def list; syntax : diagnostic list }

let module_name_of path =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename path))

let[@cts.catch_all_ok "a parse failure becomes a syntax diagnostic"] parse_file
    path text =
  let lexbuf = Lexing.from_string text in
  Lexing.set_filename lexbuf path;
  match
    if Filename.check_suffix path ".mli" then Intf (Parse.interface lexbuf)
    else Impl (Parse.implementation lexbuf)
  with
  | ast -> Ok ast
  | exception exn ->
      let line, col, msg =
        match Location.error_of_exn exn with
        | Some (`Ok (err : Location.error)) ->
            let p = err.Location.main.Location.loc.Location.loc_start in
            ( p.Lexing.pos_lnum,
              p.Lexing.pos_cnum - p.Lexing.pos_bol,
              Format.asprintf "%t" err.Location.main.Location.txt )
        | _ -> (1, 0, Printexc.to_string exn)
      in
      Error { rule = "syntax"; file = path; line; col; message = msg }

let aliases_of = function
  | Some (Impl str) ->
      List.fold_left
        (fun acc item ->
          match item.pstr_desc with
          | Pstr_module
              { pmb_name = { txt = Some alias; _ };
                pmb_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ } -> (
              match List.rev (Longident.flatten txt) with
              | last :: _ -> (alias, last) :: acc
              | [] -> acc)
          | _ -> acc)
        [] str
  | Some (Intf _) | None -> []

let defs_of file =
  match file.ast with
  | Some (Impl str) ->
      List.concat_map
        (fun item ->
          match item.pstr_desc with
          | Pstr_value (_, vbs) ->
              List.map
                (fun vb ->
                  let name =
                    match vb.pvb_pat.ppat_desc with
                    | Ppat_var { txt; _ } -> txt
                    | _ ->
                        Printf.sprintf "_top_%d"
                          item.pstr_loc.Location.loc_start.Lexing.pos_lnum
                  in
                  {
                    file;
                    name;
                    expr = vb.pvb_expr;
                    attrs = vb.pvb_attributes;
                    loc = vb.pvb_loc;
                  })
                vbs
          | Pstr_eval (expr, attrs) ->
              [ { file; name = "_eval"; expr; attrs; loc = item.pstr_loc } ]
          | _ -> [])
        str
  | Some (Intf _) | None -> []

let parse sources =
  let sources =
    List.sort compare
      (List.filter_map
         (fun (p, text) ->
           let path = normalize_path p in
           if is_source path then Some (path, text) else None)
         sources)
  in
  let parsed =
    List.map
      (fun (path, text) ->
        let ast = parse_file path text in
        let ast' = Result.to_option ast in
        ( {
            path;
            modname = module_name_of path;
            text;
            ast = ast';
            aliases = aliases_of ast';
          },
          ast ))
      sources
  in
  let files = List.map fst parsed in
  {
    files;
    defs = List.concat_map defs_of files;
    syntax =
      List.filter_map
        (fun (_, ast) -> match ast with Error d -> Some d | Ok _ -> None)
        parsed;
  }

let implementations t =
  List.filter_map
    (fun f -> match f.ast with Some (Impl s) -> Some (f, s) | _ -> None)
    t.files

let interfaces t =
  List.filter_map
    (fun f -> match f.ast with Some (Intf s) -> Some (f, s) | _ -> None)
    t.files

(* ------------------------------------------------------------------ *)
(* Shared syntactic helpers                                            *)

let dotted segs =
  match List.rev segs with
  | [] -> ""
  | [ x ] -> x
  | x :: m :: _ -> m ^ "." ^ x

let apply_head e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (Longident.flatten txt)
  | _ -> None

let string_payload = function
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      Some s
  | _ -> None

let pattern_vars p =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) ->
              acc := txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.pat it p);
    }
  in
  it.pat it p;
  !acc

let nolabel_args args =
  List.filter_map
    (fun (lbl, e) -> match lbl with Asttypes.Nolabel -> Some e | _ -> None)
    args

let resolve_alias file m =
  match List.assoc_opt m file.aliases with Some t -> t | None -> m

let qualified file (lid : Longident.t) =
  match lid with
  | Ldot ((Lident m | Ldot (_, m)), n) -> Some (resolve_alias file m, n)
  | Lident _ | Ldot (Lapply _, _) | Lapply _ -> None

let write_prims =
  [
    (":=", (0, Some 1)); ("incr", (0, None)); ("decr", (0, None));
    ("Hashtbl.replace", (0, Some 2)); ("Hashtbl.add", (0, Some 2));
    ("Hashtbl.remove", (0, None)); ("Hashtbl.reset", (0, None));
    ("Hashtbl.clear", (0, None)); ("Hashtbl.filter_map_inplace", (1, None));
    ("Array.set", (0, Some 2)); ("Array.unsafe_set", (0, Some 2));
    ("Array.fill", (0, Some 3)); ("Array.blit", (2, None));
    ("Array.sort", (1, None)); ("Array.fast_sort", (1, None));
    ("Array.stable_sort", (1, None));
    ("Bytes.set", (0, None)); ("Bytes.unsafe_set", (0, None));
    ("Bytes.fill", (0, None)); ("Bytes.blit", (2, None));
    ("Buffer.add_string", (0, None)); ("Buffer.add_char", (0, None));
    ("Buffer.add_bytes", (0, None)); ("Buffer.add_buffer", (0, None));
    ("Buffer.add_substring", (0, None)); ("Buffer.add_subbytes", (0, None));
    ("Buffer.clear", (0, None)); ("Buffer.reset", (0, None));
    ("Buffer.truncate", (0, None));
    ("Queue.add", (1, Some 0)); ("Queue.push", (1, Some 0));
    ("Queue.pop", (0, None)); ("Queue.take", (0, None));
    ("Queue.clear", (0, None)); ("Queue.transfer", (0, None));
    ("Stack.push", (1, Some 0)); ("Stack.pop", (0, None));
    ("Stack.clear", (0, None));
    ("Atomic.set", (0, Some 1)); ("Atomic.exchange", (0, Some 1));
    ("Atomic.compare_and_set", (0, Some 2));
    ("Atomic.fetch_and_add", (0, None)); ("Atomic.incr", (0, None));
    ("Atomic.decr", (0, None));
  ]

let fresh_allocs =
  [
    "ref"; "Hashtbl.create"; "Hashtbl.copy"; "Queue.create"; "Queue.copy";
    "Buffer.create"; "Stack.create"; "Atomic.make"; "Mutex.create";
    "Condition.create"; "Array.make"; "Array.init"; "Array.create_float";
    "Array.of_list"; "Array.copy"; "Array.make_matrix"; "Array.append";
    "Array.concat"; "Array.sub"; "Array.map"; "Array.mapi"; "Bytes.create";
    "Bytes.make"; "Bytes.copy"; "Bytes.of_string";
  ]

let guard_mechanism s =
  if List.mem s [ "mutex"; "atomic"; "domain-local" ] then
    Some (s, None)
  else
    match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "mutex" && i + 1 < String.length s ->
        Some ("mutex", Some (String.sub s (i + 1) (String.length s - i - 1)))
    | _ -> None

type task = Pool | Spawn

let task_call file segs =
  match segs with
  | [ m; ("map" | "iter") ] when resolve_alias file m = "Parallel" -> Some Pool
  | _ -> if dotted segs = "Domain.spawn" then Some Spawn else None

(* ------------------------------------------------------------------ *)
(* Summary tables, fixpoint and reachability                           *)

type 'a table = {
  by_key : (string * string, 'a) Hashtbl.t;
  mutable order : 'a list;  (* newest first *)
  mutable root_list : 'a list;  (* newest first *)
}

let table () = { by_key = Hashtbl.create 256; order = []; root_list = [] }

let summary t key make =
  match Hashtbl.find_opt t.by_key key with
  | Some s -> s
  | None ->
      let s = make key in
      Hashtbl.replace t.by_key key s;
      t.order <- s :: t.order;
      s

let root t file (loc : Location.t) make =
  let p = loc.Location.loc_start in
  let key =
    ( file.modname,
      Printf.sprintf "<task@%d:%d>" p.Lexing.pos_lnum
        (p.Lexing.pos_cnum - p.Lexing.pos_bol) )
  in
  let fresh = not (Hashtbl.mem t.by_key key) in
  let s = summary t key make in
  if fresh then t.root_list <- s :: t.root_list;
  s

let find t key = Hashtbl.find_opt t.by_key key
let summaries t = List.rev t.order
let roots t = List.rev t.root_list

let fixpoint ~max_rounds round =
  let rec go n = if n < max_rounds && round () then go (n + 1) in
  go 0

let propagate t ~edges transfer =
  let all = summaries t in
  fixpoint ~max_rounds:max_int (fun () ->
      List.fold_left
        (fun changed caller ->
          List.fold_left
            (fun changed (key, edge) ->
              match find t key with
              | Some callee when callee != caller ->
                  transfer caller edge callee || changed
              | Some _ | None -> changed)
            changed (edges caller))
        false all)

let via (m, n) witness = Printf.sprintf "%s.%s -> %s" m n witness

let reachable t roots callees =
  let seen = Hashtbl.create 64 in
  let queue = Queue.create () in
  List.iter (fun r -> Queue.add r queue) roots;
  let reached = ref [] in
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    reached := s :: !reached;
    List.iter
      (fun key ->
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.replace seen key ();
          Option.iter (fun c -> Queue.add c queue) (find t key)
        end)
      (callees s)
  done;
  !reached
