(* Interprocedural exception-flow & resource-safety analyzer (E1-E5).
   See exc.mli for the rule set.

   Pass 1 walks every top-level definition into a summary of raise
   sites and call edges. Each site snapshots the handler frames active
   around it (a [try]/[match-exception] subtracts the exceptions its
   enumerated cases catch; a catch-all absorbs everything; a catch-all
   that re-raises its variable — an observer — subtracts nothing) and
   the resource brackets open at the site ([Mutex.lock] .. [unlock],
   [open_in*] .. [close_in*]). [Mutex.protect] and [Fun.protect] are
   the blessed exception-safe forms and open no hazard. Let-bound
   lambdas become their own child summaries so a local closure's
   effects never pollute the enclosing definition until the closure is
   referenced; lambdas passed directly to HOF arguments are walked
   inline (stdlib HOFs apply them); [Parallel.map]/[Parallel.iter]
   task closures and [Domain.spawn] thunks start fresh task roots
   (with a coordinator edge back into the submitter, because
   [Parallel.map] re-raises the first task exception).

   Pass 2 seeds each summary's may-raise effect set from its local
   sites and the latent-exception table (partial stdlib calls), then
   runs a monotone fixpoint over the call graph: a callee's effects
   flow through each call edge filtered by the handler frames active
   at the edge. Witness chains ("M.n -> raise Foo at file:l:c") are
   kept per exception. Two sets are computed: the full inferred
   may-raise set (E2 contract verification) and the undeclared set,
   where a definition's own [@cts.raises] contract subtracts what it
   documents (E1 only reports undocumented escapes).

   Pass 3 emits E1-E5. Everything lands in one list sorted through
   Front.sort_diagnostics; summaries are processed in sorted-source
   order, so the report is identical under any file-visit order.

   Deliberate trust boundaries (see DESIGN.md section 5k): array /
   string indexing and [assert] are excluded from the latent alphabet
   (the numeric kernels would make every effect set Invalid_argument);
   channel reads are charged End_of_file but not Sys_error; a
   re-raised handler variable is tracked for resource safety (E3) but
   not added to effect sets. *)

open Parsetree
module SS = Set.Make (String)

let rec strip_constraint e =
  match e.pexp_desc with
  | Pexp_constraint (e', _) | Pexp_newtype (_, e') -> strip_constraint e'
  | _ -> e

(* ------------------------------------------------------------------ *)
(* Latent-exception alphabet                                            *)

(* Partial stdlib calls charged as latent exceptions. Array/string
   indexing and [assert] are deliberately absent (trust boundary);
   channel reads are End_of_file, not Sys_error. *)
let raising_prims =
  [
    ("Option.get", "Invalid_argument");
    ("List.hd", "Failure"); ("List.tl", "Failure");
    ("Hashtbl.find", "Not_found"); ("List.assoc", "Not_found");
    ("List.find", "Not_found"); ("String.index", "Not_found");
    ("String.rindex", "Not_found"); ("Sys.getenv", "Not_found");
    ("failwith", "Failure"); ("invalid_arg", "Invalid_argument");
    ("int_of_string", "Failure"); ("float_of_string", "Failure");
    ("open_in", "Sys_error"); ("open_in_bin", "Sys_error");
    ("open_in_gen", "Sys_error"); ("open_out", "Sys_error");
    ("open_out_bin", "Sys_error"); ("open_out_gen", "Sys_error");
    ("Filename.open_temp_file", "Sys_error"); ("Sys.rename", "Sys_error");
    ("Sys.remove", "Sys_error");
    ("input_line", "End_of_file"); ("input_char", "End_of_file");
    ("input_byte", "End_of_file"); ("input_value", "End_of_file");
    ("really_input", "End_of_file"); ("really_input_string", "End_of_file");
    ("Queue.pop", "Queue.Empty"); ("Queue.take", "Queue.Empty");
    ("Queue.peek", "Queue.Empty");
    ("Stack.pop", "Stack.Empty"); ("Stack.top", "Stack.Empty");
  ]

(* The subset whose argument shape a dominating check can prove, and
   which E5 polices on task-reachable paths. *)
let e5_partials = [ "Option.get"; "List.hd"; "List.tl" ]

let open_prims =
  [ "open_in"; "open_in_bin"; "open_in_gen";
    "open_out"; "open_out_bin"; "open_out_gen" ]

let close_prims =
  [ "close_in"; "close_in_noerr"; "close_out"; "close_out_noerr" ]

let raise_prims = [ "raise"; "raise_notrace"; "Printexc.raise_with_backtrace" ]

let poly_exn = "<re-raise>"

(* ------------------------------------------------------------------ *)
(* Exception-name matching                                              *)

let last_seg s =
  match String.rindex_opt s '.' with
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)
  | None -> s

let qualified s = String.contains s '.'

(* Lenient on qualification: a bare [Check_failed] caught locally
   matches a [Ctree_check.Check_failed] raised elsewhere. *)
let exn_matches a b =
  a = b
  || ((not (qualified a)) && last_seg b = a)
  || ((not (qualified b)) && last_seg a = b)

(* ------------------------------------------------------------------ *)
(* Summaries                                                            *)

type handled = H_all | H_exns of SS.t

type hframe = {
  hf_handled : handled;
  hf_buids : int list;  (* brackets already open at try entry *)
  hf_released : string list;  (* bracket ids the handler bodies release *)
}

type bracket = {
  b_uid : int;
  b_id : string;
  b_desc : string;
  b_line : int;
  mutable b_safe : bool;  (* release guaranteed on unwind (Fun.protect) *)
}

type skind = S_exn of string | S_call of (string * string)

type site = {
  s_kind : skind;
  s_what : string;  (* "raise Foo", "List.hd", "Run.span", ... *)
  s_poly : bool;  (* re-raise of an in-flight exception: E3 only *)
  s_hsnap : hframe list;  (* innermost first *)
  s_bsnap : bracket list;
  s_loc : Location.t;
}

type info = {
  i_file : string;
  i_key : string * string;  (* (Module, name) *)
  i_loc : Location.t;
  i_public : bool;  (* structure-level definition: exported in raise table *)
  i_task : string option;  (* Some "Parallel.map" | "Domain.spawn" for roots *)
  mutable i_sites : site list;
  mutable i_partials : (string * Location.t) list;  (* E5 candidates *)
  (* pass-2 results: exn -> witness chain, insertion-ordered *)
  mutable i_eff : (string * string) list;
  mutable i_undecl : (string * string) list;
}

type contract = {
  co_key : string * string;
  co_exns : SS.t;
  co_file : string;
  co_line : int;
  co_col : int;
}

type global = {
  table : info Front.table;
  exndecls : (string * string) list;  (* top-level [exception] items *)
  contracts : (string * string, contract) Hashtbl.t;
  mutable contract_list : contract list;
  mutable next_uid : int;
  mutable diags : Front.diagnostic list;
}

type ctx = {
  glob : global;
  file : Front.file;
  info : info;
  defname : string;
  catch_all_ok : bool;  (* [@cts.catch_all_ok "reason"] in scope *)
  partial_ok : bool;  (* [@cts.partial_ok] in scope *)
}

let add glob d = glob.diags <- d :: glob.diags

let new_info file loc ~public ~task key =
  {
    i_file = file;
    i_key = key;
    i_loc = loc;
    i_public = public;
    i_task = task;
    i_sites = [];
    i_partials = [];
    i_eff = [];
    i_undecl = [];
  }

(* The summary of a definition (or local function) of [ctx]'s file. *)
let define ctx name loc ~public =
  let key = (ctx.file.Front.modname, name) in
  Front.summary ctx.glob.table key
    (new_info ctx.file.path loc ~public ~task:None)

(* ------------------------------------------------------------------ *)
(* Environment and proven-shape facts                                   *)

module Env = Map.Make (String)

(* KFn key: a let-bound local function summarized as its own child
   definition under [key]; references become call edges to it. *)
type kind = KFn of string | KVal

let bind_vals env p =
  List.fold_left (fun e v -> Env.add v KVal e) env (Front.pattern_vars p)

let qualified_name ctx lid =
  match Front.qualified ctx.file lid with
  | Some (m, n) -> m ^ "." ^ n
  | None -> "<anon>"

let qualify ctx (lid : Longident.t) =
  match lid with
  | Lident x ->
      if List.mem (ctx.file.Front.modname, x) ctx.glob.exndecls then
        ctx.file.modname ^ "." ^ x
      else x
  | _ -> qualified_name ctx lid

(* Resolved identity of a mutex expression (coarse, as in race.ml). *)
let rec res_id ctx env e =
  match e.pexp_desc with
  | Pexp_ident { txt = Lident x; _ } ->
      if Env.mem x env then x else ctx.file.Front.modname ^ "." ^ x
  | Pexp_ident { txt; _ } -> qualified_name ctx txt
  | Pexp_field (_, { txt = Lident f | Ldot (_, f); _ }) -> "<." ^ f ^ ">"
  | Pexp_constraint (e', _) -> res_id ctx env e'
  | _ -> "<anon>"

(* Can a dominating check have proven this argument non-empty/Some? *)
let rec proven_expr prov e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident v; _ } -> SS.mem v prov
  | Pexp_construct ({ txt = Longident.Lident ("::" | "Some"); _ }, _) -> true
  | Pexp_constraint (e', _) -> proven_expr prov e'
  | _ -> false

let is_nil e =
  match (strip_constraint e).pexp_desc with
  | Pexp_construct ({ txt = Longident.Lident "[]"; _ }, None) -> true
  | _ -> false

let is_none e =
  match (strip_constraint e).pexp_desc with
  | Pexp_construct ({ txt = Longident.Lident "None"; _ }, None) -> true
  | _ -> false

let var_of e =
  match (strip_constraint e).pexp_desc with
  | Pexp_ident { txt = Longident.Lident v; _ } -> Some v
  | _ -> None

let is_zero e =
  match (strip_constraint e).pexp_desc with
  | Pexp_constant (Pconst_integer ("0", None)) -> true
  | _ -> false

let length_var e =
  match (strip_constraint e).pexp_desc with
  | Pexp_apply (f, [ (Asttypes.Nolabel, a) ]) -> (
      match Front.apply_head f with
      | Some segs
        when List.mem (Front.dotted segs) [ "List.length"; "Array.length" ] ->
          var_of a
      | _ -> None)
  | _ -> None

(* (then-branch facts, else-branch facts) a condition establishes. *)
let rec facts_of_cond c : SS.t * SS.t =
  match (strip_constraint c).pexp_desc with
  | Pexp_apply (f, [ (_, a); (_, b) ]) -> (
      match Front.apply_head f with
      | Some [ "<>" ] -> (
          match
            if is_nil b || is_none b then var_of a
            else if is_nil a || is_none a then var_of b
            else None
          with
          | Some v -> (SS.singleton v, SS.empty)
          | None -> (
              match
                if is_zero b then length_var a
                else if is_zero a then length_var b
                else None
              with
              | Some v -> (SS.singleton v, SS.empty)
              | None -> (SS.empty, SS.empty)))
      | Some [ "=" ] -> (
          match
            if is_nil b || is_none b then var_of a
            else if is_nil a || is_none a then var_of b
            else None
          with
          | Some v -> (SS.empty, SS.singleton v)
          | None -> (SS.empty, SS.empty))
      | Some [ ">" ] -> (
          match if is_zero b then length_var a else None with
          | Some v -> (SS.singleton v, SS.empty)
          | None -> (SS.empty, SS.empty))
      | Some [ "&&" ] ->
          let ta, _ = facts_of_cond a and tb, _ = facts_of_cond b in
          (SS.union ta tb, SS.empty)
      | Some [ "||" ] ->
          let _, ea = facts_of_cond a and _, eb = facts_of_cond b in
          (SS.empty, SS.union ea eb)
      | _ -> (SS.empty, SS.empty))
  | Pexp_apply (f, [ (_, a) ]) -> (
      match Front.apply_head f with
      | Some [ "not" ] ->
          let t, e = facts_of_cond a in
          (e, t)
      | Some [ "Option"; "is_some" ] -> (
          match var_of a with
          | Some v -> (SS.singleton v, SS.empty)
          | None -> (SS.empty, SS.empty))
      | Some [ "Option"; "is_none" ] -> (
          match var_of a with
          | Some v -> (SS.empty, SS.singleton v)
          | None -> (SS.empty, SS.empty))
      | Some [ ("Queue" | "Stack"); "is_empty" ] -> (
          (* [while not (Queue.is_empty q) do Queue.pop q ... done] is
             the canonical worklist loop: the else/negated branch
             proves the container non-empty. *)
          match var_of a with
          | Some v -> (SS.empty, SS.singleton v)
          | None -> (SS.empty, SS.empty))
      | _ -> (SS.empty, SS.empty))
  | _ -> (SS.empty, SS.empty)

let rec definitely_raises e =
  match e.pexp_desc with
  | Pexp_apply (f, _) -> (
      match Front.apply_head f with
      | Some segs ->
          List.mem (Front.dotted segs)
            ("failwith" :: "invalid_arg" :: raise_prims)
      | None -> false)
  | Pexp_sequence (_, b) -> definitely_raises b
  | Pexp_constraint (e', _) -> definitely_raises e'
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Attributes                                                           *)

let flags_of_attrs ctx (attrs : attributes) =
  List.fold_left
    (fun ctx (a : attribute) ->
      match a.attr_name.Location.txt with
      | "cts.catch_all_ok"
        when Option.is_some (Front.string_payload a.attr_payload) ->
          { ctx with catch_all_ok = true }
      | "cts.partial_ok" -> { ctx with partial_ok = true }
      | _ -> ctx)
    ctx attrs

let has_catch_all_ok (attrs : attributes) =
  List.exists
    (fun (a : attribute) ->
      a.attr_name.Location.txt = "cts.catch_all_ok"
      && Option.is_some (Front.string_payload a.attr_payload))
    attrs

let parse_contract s =
  SS.of_list
    (List.filter
       (fun t -> t <> "")
       (List.map String.trim (String.split_on_char ',' s)))

let add_contract glob key file (loc : Location.t) exns =
  let p = loc.Location.loc_start in
  let co =
    {
      co_key = key;
      co_exns = exns;
      co_file = file;
      co_line = p.Lexing.pos_lnum;
      co_col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    }
  in
  (match Hashtbl.find_opt glob.contracts key with
  | Some old ->
      glob.contract_list <-
        List.filter (fun c -> c != old) glob.contract_list
  | None -> ());
  Hashtbl.replace glob.contracts key co;
  glob.contract_list <- co :: glob.contract_list

(* The [@cts.raises] payload among [attrs], if any. *)
let raises_attr (attrs : attributes) =
  List.find_map
    (fun (a : attribute) ->
      if a.attr_name.Location.txt = "cts.raises" then
        Front.string_payload a.attr_payload
      else None)
    attrs

let contract_exns glob key =
  match Hashtbl.find_opt glob.contracts key with
  | Some c -> c.co_exns
  | None -> SS.empty

(* Contract entries are matched leniently (exn_matches): a contract
   inside the defining module may spell [Check_failed] for what the
   effect table qualifies as [Ctree_check.Check_failed]. *)
let in_contract co x = SS.exists (fun c -> exn_matches c x) co

(* ------------------------------------------------------------------ *)
(* Site recording                                                       *)

let add_site ?(poly = false) ctx hs brks kind what loc =
  ctx.info.i_sites <-
    {
      s_kind = kind;
      s_what = what;
      s_poly = poly;
      s_hsnap = hs;
      s_bsnap = brks;
      s_loc = loc;
    }
    :: ctx.info.i_sites

let add_call ctx hs brks key loc = add_site ctx hs brks (S_call key) "call" loc

let note_ref ctx env hs brks (lid : Longident.t) loc =
  match lid with
  | Lident x -> (
      match Env.find_opt x env with
      | Some (KFn key) -> add_call ctx hs brks (ctx.file.Front.modname, key) loc
      | Some KVal -> ()
      | None -> add_call ctx hs brks (ctx.file.modname, x) loc)
  | _ ->
      Option.iter
        (fun key -> add_call ctx hs brks key loc)
        (Front.qualified ctx.file lid)

let frame_catches hf x =
  match hf.hf_handled with
  | H_all -> true
  | H_exns s -> SS.exists (fun c -> exn_matches x c) s

let absorbed hs x = List.exists (fun hf -> frame_catches hf x) hs

(* Does bracket [b] leak when exception [x] flies at a site with
   handler frames [hs] (innermost first)? *)
let leaks b x hs =
  if b.b_safe then false
  else
    let rec scan = function
      | [] -> true  (* escapes the definition with the bracket open *)
      | hf :: tl ->
          if List.mem b.b_id hf.hf_released then false
          else if frame_catches hf x then not (List.mem b.b_uid hf.hf_buids)
          else scan tl
    in
    scan hs

(* Bracket ids an expression releases (observer handlers, ~finally). *)
let released_ids ctx env e =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e' ->
          (match e'.pexp_desc with
          | Pexp_apply (f, args) -> (
              match (Front.apply_head f, Front.nolabel_args args) with
              | Some segs, m :: _ when Front.dotted segs = "Mutex.unlock" ->
                  acc := ("lock:" ^ res_id ctx env m) :: !acc
              | Some [ p ], a :: _ when List.mem p close_prims -> (
                  match var_of a with
                  | Some v -> acc := ("chan:" ^ v) :: !acc
                  | None -> ())
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e');
    }
  in
  it.expr it e;
  !acc

let reraises v e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e' ->
          (match e'.pexp_desc with
          | Pexp_apply (f, args) -> (
              match (Front.apply_head f, Front.nolabel_args args) with
              | Some segs, a :: _ when List.mem (Front.dotted segs) raise_prims
                -> (
                  match var_of a with
                  | Some v' when v' = v -> found := true
                  | _ -> ())
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e');
    }
  in
  it.expr it e;
  !found

let open_bracket ctx brks id desc (loc : Location.t) =
  ctx.glob.next_uid <- ctx.glob.next_uid + 1;
  brks
  @ [
      {
        b_uid = ctx.glob.next_uid;
        b_id = id;
        b_desc = desc;
        b_line = loc.Location.loc_start.Lexing.pos_lnum;
        b_safe = false;
      };
    ]

let close_bracket brks id =
  let rec go = function
    | [] -> []
    | b :: tl ->
        if b.b_id = id && not (List.exists (fun b' -> b'.b_id = id) tl) then tl
        else b :: go tl
  in
  go (List.rev brks) |> List.rev

(* ------------------------------------------------------------------ *)
(* Handler classification                                               *)

(* [cases] are (exception-pattern, guard, rhs) triples. Returns the
   combined frame for the protected region and emits E4 for swallowing
   catch-alls. Guarded cases subtract nothing (the guard may fail). *)
let classify_handlers ctx env brks cases =
  let handled = ref SS.empty in
  let all = ref false in
  let released = ref [] in
  List.iter
    (fun (pat, guard, rhs) ->
      released := !released @ released_ids ctx env rhs;
      if guard = None then begin
        let rec names p =
          match p.ppat_desc with
          | Ppat_construct (lid, _) -> Some [ qualify ctx lid.Location.txt ]
          | Ppat_or (a, b) -> (
              match (names a, names b) with
              | Some x, Some y -> Some (x @ y)
              | _ -> None)
          | Ppat_alias (p', _) | Ppat_constraint (p', _) -> names p'
          | _ -> None
        in
        match names pat with
        | Some ns -> handled := SS.union !handled (SS.of_list ns)
        | None ->
            let caught_var =
              match pat.ppat_desc with
              | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) -> Some txt
              | _ -> None
            in
            let observer =
              match caught_var with Some v -> reraises v rhs | None -> false
            in
            if not observer then begin
              all := true;
              if
                not (ctx.catch_all_ok || has_catch_all_ok rhs.pexp_attributes)
              then
                add ctx.glob
                  (Front.diag "E4" ctx.file.path pat.ppat_loc
                     "catch-all handler swallows every exception \
                      (Out_of_memory and Stack_overflow included); enumerate \
                      the expected exceptions or annotate \
                      [@cts.catch_all_ok \"reason\"]")
            end
      end)
    cases;
  {
    hf_handled = (if !all then H_all else H_exns !handled);
    hf_buids = List.map (fun b -> b.b_uid) brks;
    hf_released = !released;
  }

(* ------------------------------------------------------------------ *)
(* The walker                                                           *)

(* [walk] returns the bracket state after the expression; handler
   frames and proven-shape facts flow downward only. *)
let rec walk ctx env prov hs brks e : bracket list =
  let ctx = flags_of_attrs ctx e.pexp_attributes in
  match e.pexp_desc with
  | Pexp_ident { txt; _ } ->
      note_ref ctx env hs brks txt e.pexp_loc;
      brks
  | Pexp_apply (f, args) -> walk_apply ctx env prov hs brks e f args
  | Pexp_let (rf, vbs, body) -> walk_let ctx env prov hs brks rf vbs body
  | Pexp_fun _ | Pexp_function _ ->
      (* A lambda in a non-applied position: its body becomes a latent
         child summary with no inbound edge — effects do not leak into
         the enclosing definition until something references it. *)
      let p = e.pexp_loc.Location.loc_start in
      let name =
        Printf.sprintf "%s.<fn@%d:%d>" ctx.defname p.Lexing.pos_lnum
          (p.Lexing.pos_cnum - p.Lexing.pos_bol)
      in
      let ci = define ctx name e.pexp_loc ~public:false in
      do_body { ctx with info = ci; defname = name } env e;
      brks
  | Pexp_try (body, cases) ->
      let frame =
        classify_handlers ctx env brks
          (List.map (fun c -> (c.pc_lhs, c.pc_guard, c.pc_rhs)) cases)
      in
      let brks' = walk ctx env prov (frame :: hs) brks body in
      List.iter
        (fun c ->
          let env' = bind_vals env c.pc_lhs in
          Option.iter
            (fun g -> ignore (walk ctx env' prov hs brks g))
            c.pc_guard;
          ignore (walk ctx env' prov hs brks c.pc_rhs))
        cases;
      brks'
  | Pexp_match (scrut, cases) ->
      let is_exn_case c =
        match c.pc_lhs.ppat_desc with Ppat_exception _ -> true | _ -> false
      in
      let exn_cases, val_cases = List.partition is_exn_case cases in
      let brks' =
        if exn_cases = [] then walk ctx env prov hs brks scrut
        else
          let frame =
            classify_handlers ctx env brks
              (List.filter_map
                 (fun c ->
                   match c.pc_lhs.ppat_desc with
                   | Ppat_exception p -> Some (p, c.pc_guard, c.pc_rhs)
                   | _ -> None)
                 exn_cases)
          in
          walk ctx env prov (frame :: hs) brks scrut
      in
      (* Shape proving: a match with an explicit []/None case proves
         the scrutinee in every other case. *)
      let proved_var =
        match var_of scrut with
        | Some v
          when List.exists
                 (fun c ->
                   match c.pc_lhs.ppat_desc with
                   | Ppat_construct
                       ({ txt = Longident.Lident ("[]" | "None"); _ }, None)
                     ->
                       true
                   | _ -> false)
                 val_cases ->
            Some v
        | _ -> None
      in
      List.iter
        (fun c ->
          let env' = bind_vals env c.pc_lhs in
          let prov' =
            match proved_var with
            | Some v
              when not
                     (match c.pc_lhs.ppat_desc with
                     | Ppat_construct
                         ({ txt = Longident.Lident ("[]" | "None"); _ }, None)
                       ->
                         true
                     | _ -> false) ->
                SS.add v prov
            | _ -> prov
          in
          Option.iter
            (fun g -> ignore (walk ctx env' prov' hs brks' g))
            c.pc_guard;
          ignore (walk ctx env' prov' hs brks' c.pc_rhs))
        val_cases;
      List.iter
        (fun c ->
          let env' = bind_vals env c.pc_lhs in
          Option.iter
            (fun g -> ignore (walk ctx env' prov hs brks g))
            c.pc_guard;
          ignore (walk ctx env' prov hs brks c.pc_rhs))
        exn_cases;
      brks'
  | Pexp_ifthenelse (c, a, b) ->
      let brks' = walk ctx env prov hs brks c in
      let tf, ef = facts_of_cond c in
      ignore (walk ctx env (SS.union prov tf) hs brks' a);
      Option.iter
        (fun b -> ignore (walk ctx env (SS.union prov ef) hs brks' b))
        b;
      brks'
  | Pexp_sequence (a, b) ->
      let brks' = walk ctx env prov hs brks a in
      (* Early-exit guard: [if cond then raise ...; rest] proves the
         negation of [cond] for the rest of the sequence. *)
      let prov' =
        match a.pexp_desc with
        | Pexp_ifthenelse (c, th, None) when definitely_raises th ->
            let _, ef = facts_of_cond c in
            SS.union prov ef
        | _ -> prov
      in
      walk ctx env prov' hs brks' b
  | Pexp_while (c, body) ->
      let brks' = walk ctx env prov hs brks c in
      (* The body only runs while the condition holds: its then-facts
         dominate every iteration (worklist pops, length-bounded
         scans). *)
      let tf, _ = facts_of_cond c in
      ignore (walk ctx env (SS.union prov tf) hs brks' body);
      brks'
  | Pexp_for (pat, lo, hi, _, body) ->
      let brks' = walk ctx env prov hs brks lo in
      let brks' = walk ctx env prov hs brks' hi in
      ignore (walk ctx (bind_vals env pat) prov hs brks' body);
      brks'
  | _ ->
      let it =
        {
          Ast_iterator.default_iterator with
          expr = (fun _ e' -> ignore (walk ctx env prov hs brks e'));
          case =
            (fun _ c ->
              let env = bind_vals env c.pc_lhs in
              Option.iter
                (fun g -> ignore (walk ctx env prov hs brks g))
                c.pc_guard;
              ignore (walk ctx env prov hs brks c.pc_rhs));
          attributes = (fun _ _ -> ());
          pat = (fun _ _ -> ());
          typ = (fun _ _ -> ());
        }
      in
      Ast_iterator.default_iterator.expr it e;
      brks

(* Walk a definition body: peel the leading parameter chain (those
   lambdas ARE the definition — calling it applies them), then walk. *)
and do_body ctx env e =
  let ctx = flags_of_attrs ctx e.pexp_attributes in
  match e.pexp_desc with
  | Pexp_fun (_, default, pat, body) ->
      Option.iter
        (fun d -> ignore (walk ctx env SS.empty [] [] d))
        default;
      do_body ctx (bind_vals env pat) body
  | Pexp_function cases ->
      List.iter
        (fun c ->
          let env' = bind_vals env c.pc_lhs in
          Option.iter
            (fun g -> ignore (walk ctx env' SS.empty [] [] g))
            c.pc_guard;
          ignore (walk ctx env' SS.empty [] [] c.pc_rhs))
        cases
  | Pexp_constraint (e', _) | Pexp_newtype (_, e') -> do_body ctx env e'
  | _ -> ignore (walk ctx env SS.empty [] [] e)

(* A lambda argument of an ordinary application: the HOF applies it,
   so its body walks inline under the current frames and brackets. *)
and walk_lambda_inline ctx env prov hs brks a =
  let ctx = flags_of_attrs ctx a.pexp_attributes in
  match a.pexp_desc with
  | Pexp_fun (_, default, pat, body) ->
      Option.iter (fun d -> ignore (walk ctx env prov hs brks d)) default;
      walk_lambda_inline ctx (bind_vals env pat) prov hs brks body
  | Pexp_function cases ->
      List.iter
        (fun c ->
          let env' = bind_vals env c.pc_lhs in
          Option.iter
            (fun g -> ignore (walk ctx env' prov hs brks g))
            c.pc_guard;
          ignore (walk ctx env' prov hs brks c.pc_rhs))
        cases
  | _ -> ignore (walk ctx env prov hs brks a)

(* A deferred task closure: fresh root summary (empty frames/brackets
   — a task never inherits its submitter's handlers), plus an edge
   from the submitter to the root because Parallel.map re-raises the
   first task exception on the coordinator. *)
and walk_closure_as_root ctx env hs brks task a =
  let ri =
    Front.root ctx.glob.table ctx.file a.pexp_loc
      (new_info ctx.file.path a.pexp_loc ~public:false ~task:(Some task))
  in
  let rctx = { ctx with info = ri; defname = snd ri.i_key } in
  (match a.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> do_body rctx env a
  | Pexp_ident { txt; _ } -> note_ref rctx env [] [] txt a.pexp_loc
  | _ -> ());
  add_call ctx hs brks ri.i_key a.pexp_loc

and walk_let ctx env prov hs brks rf vbs body =
  let binds =
    List.map
      (fun vb ->
        match
          (vb.pvb_pat.ppat_desc, (strip_constraint vb.pvb_expr).pexp_desc)
        with
        | Ppat_var { txt; _ }, (Pexp_fun _ | Pexp_function _) ->
            let line = vb.pvb_loc.Location.loc_start.Lexing.pos_lnum in
            `Fn (txt, Printf.sprintf "%s.%s@%d" ctx.defname txt line, vb)
        | _ -> `Val vb)
      vbs
  in
  let env' =
    List.fold_left
      (fun env b ->
        match b with
        | `Fn (v, key, _) -> Env.add v (KFn key) env
        | `Val vb -> bind_vals env vb.pvb_pat)
      env binds
  in
  let rhs_env = if rf = Asttypes.Recursive then env' else env in
  let brks', prov' =
    List.fold_left
      (fun (brks, prov) b ->
        match b with
        | `Fn (_, key, vb) ->
            (* Local function: its own child summary, walked with empty
               frames and brackets — applied later, the call edge
               carries the application-site context. *)
            let ci = define ctx key vb.pvb_loc ~public:false in
            Option.iter
              (fun s ->
                add_contract ctx.glob ci.i_key ctx.file.path vb.pvb_loc
                  (parse_contract s))
              (raises_attr vb.pvb_attributes);
            let cctx =
              flags_of_attrs
                { ctx with info = ci; defname = key }
                vb.pvb_attributes
            in
            do_body cctx rhs_env vb.pvb_expr;
            (brks, prov)
        | `Val vb ->
            let vctx = flags_of_attrs ctx vb.pvb_attributes in
            let brks = walk vctx rhs_env prov hs brks vb.pvb_expr in
            let rhs = strip_constraint vb.pvb_expr in
            let prov =
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt; _ } when proven_expr SS.empty rhs ->
                  SS.add txt prov
              | _ -> prov
            in
            let brks =
              match (vb.pvb_pat.ppat_desc, rhs.pexp_desc) with
              | Ppat_var { txt = v; _ }, Pexp_apply (f, _) -> (
                  match Front.apply_head f with
                  | Some segs when List.mem (Front.dotted segs) open_prims ->
                      open_bracket ctx brks ("chan:" ^ v)
                        (Front.dotted segs ^ " " ^ v) vb.pvb_loc
                  | _ -> brks)
              | _ -> brks
            in
            (brks, prov))
      (brks, prov) binds
  in
  walk ctx env' prov' hs brks' body

and walk_raise ctx env prov hs brks x loc =
  match (strip_constraint x).pexp_desc with
  | Pexp_construct (lid, argo) ->
      let exn = qualify ctx lid.Location.txt in
      Option.iter (fun a -> ignore (walk ctx env prov hs brks a)) argo;
      add_site ctx hs brks (S_exn exn) ("raise " ^ exn) loc;
      brks
  | _ ->
      ignore (walk ctx env prov hs brks x);
      add_site ~poly:true ctx hs brks (S_exn poly_exn) "re-raise" loc;
      brks

and walk_apply ctx env prov hs brks e f args =
  match Front.apply_head f with
  | None ->
      let brks' = walk ctx env prov hs brks f in
      List.fold_left (fun b (_, a) -> walk ctx env prov hs b a) brks' args
  | Some segs -> (
      let d = Front.dotted segs in
      let pos = Front.nolabel_args args in
      let task = Front.task_call ctx.file segs in
      match (d, pos) with
      | ("raise" | "raise_notrace"), x :: _ ->
          walk_raise ctx env prov hs brks x e.pexp_loc
      | "Printexc.raise_with_backtrace", x :: _ ->
          walk_raise ctx env prov hs brks x e.pexp_loc
      | "Mutex.lock", m :: _ ->
          ignore (walk ctx env prov hs brks m);
          let id = "lock:" ^ res_id ctx env m in
          open_bracket ctx brks id
            ("Mutex.lock " ^ res_id ctx env m)
            e.pexp_loc
      | "Mutex.unlock", m :: _ ->
          ignore (walk ctx env prov hs brks m);
          close_bracket brks ("lock:" ^ res_id ctx env m)
      | "Mutex.protect", m :: rest ->
          (* The blessed exception-safe lock form: no bracket. *)
          ignore (walk ctx env prov hs brks m);
          List.iter (walk_lambda_inline ctx env prov hs brks) rest;
          brks
      | "Fun.protect", _ ->
          (* ~finally guarantees release on unwind: mark the brackets
             it closes safe for the thunk's sites, then close them. *)
          let released =
            List.concat_map
              (fun (lbl, a) ->
                match lbl with
                | Asttypes.Labelled "finally" -> released_ids ctx env a
                | _ -> [])
              args
          in
          List.iter
            (fun b -> if List.mem b.b_id released then b.b_safe <- true)
            brks;
          List.iter
            (fun (_, a) -> walk_lambda_inline ctx env prov hs brks a)
            args;
          List.fold_left close_bracket brks released
      | p, a :: _ when List.mem p close_prims -> (
          match var_of a with
          | Some v -> close_bracket brks ("chan:" ^ v)
          | None -> brks)
      | _ when task = Some Front.Spawn ->
          List.iter (walk_closure_as_root ctx env hs brks "Domain.spawn") pos;
          brks
      | _ ->
          if task = Some Front.Pool then begin
            List.iteri
              (fun i a ->
                if i = 0 then ignore (walk ctx env prov hs brks a)
                else
                  match a.pexp_desc with
                  | Pexp_fun _ | Pexp_function _ | Pexp_ident _ ->
                      walk_closure_as_root ctx env hs brks
                        (d ^ " at line "
                        ^ string_of_int
                            e.pexp_loc.Location.loc_start.Lexing.pos_lnum)
                        a
                  | _ -> ignore (walk ctx env prov hs brks a))
              pos;
            List.iter
              (fun (lbl, a) ->
                match lbl with
                | Asttypes.Nolabel -> ()
                | _ -> ignore (walk ctx env prov hs brks a))
              args;
            brks
          end
          else begin
            (* Latent partial-call exceptions, E5 candidates. *)
            (match List.assoc_opt d raising_prims with
            | Some exn ->
                let e5able = List.mem d e5_partials in
                (* A dominating shape check absolves any
                   container-shaped latent prim (Option.get, List.hd,
                   Queue.pop under a worklist guard, ...): facts only
                   ever name list/option/queue/stack variables, so
                   string/key-indexed prims are unaffected. *)
                let proven =
                  match pos with
                  | a :: _ -> proven_expr prov a
                  | [] -> false
                in
                if not proven then begin
                  add_site ctx hs brks (S_exn exn) d e.pexp_loc;
                  if e5able && not ctx.partial_ok then
                    ctx.info.i_partials <- (d, e.pexp_loc) :: ctx.info.i_partials
                end
            | None -> ());
            ignore (walk ctx env prov hs brks f);
            List.fold_left
              (fun b (_, a) ->
                match a.pexp_desc with
                | Pexp_fun _ | Pexp_function _ ->
                    walk_lambda_inline ctx env prov hs b a;
                    b
                | _ -> walk ctx env prov hs b a)
              brks args
          end)

(* ------------------------------------------------------------------ *)
(* Structure / signature passes                                         *)

(* Locally declared exceptions, for qualification. *)
let exception_decls (front : Front.t) =
  List.concat_map
    (fun ((file : Front.file), str) ->
      List.filter_map
        (fun item ->
          match item.pstr_desc with
          | Pstr_exception te ->
              Some (file.modname, te.ptyexn_constructor.pext_name.Location.txt)
          | _ -> None)
        str)
    (Front.implementations front)

let summarize glob (front : Front.t) =
  List.iter
    (fun (d : Front.def) ->
      let key = (d.file.modname, d.name) in
      Option.iter
        (fun s -> add_contract glob key d.file.path d.loc (parse_contract s))
        (raises_attr d.attrs);
      let info =
        Front.summary glob.table key
          (new_info d.file.path d.loc ~public:true ~task:None)
      in
      let ctx =
        {
          glob;
          file = d.file;
          info;
          defname = d.name;
          catch_all_ok = false;
          partial_ok = false;
        }
      in
      do_body (flags_of_attrs ctx d.attrs) Env.empty d.expr)
    front.defs

(* Contracts from mli signatures ([@@cts.raises "Exn1,Exn2"] /
   [@@cts.raises ""] on a val). Top-level values only: the library is
   unwrapped, so (Module, name) keys line up with the ml summaries. *)
let do_interface glob (file : Front.file) (sg : signature) =
  List.iter
    (fun item ->
      match item.psig_desc with
      | Psig_value vd ->
          List.iter
            (fun (a : attribute) ->
              if a.attr_name.Location.txt = "cts.raises" then
                match Front.string_payload a.attr_payload with
                | Some s ->
                    add_contract glob
                      (file.modname, vd.pval_name.Location.txt)
                      file.path a.attr_loc (parse_contract s)
                | None ->
                    add glob
                      (Front.diag "E2" file.path a.attr_loc
                         "malformed [@cts.raises] payload: expected a \
                          string of comma-separated exception names (\"\" \
                          for total)"))
            vd.pval_attributes
      | _ -> ())
    sg

(* ------------------------------------------------------------------ *)
(* Pass 2: effect seeding and fixpoint                                  *)

let wit_of info (s : site) =
  let p = s.s_loc.Location.loc_start in
  Printf.sprintf "%s at %s:%d:%d" s.s_what info.i_file p.Lexing.pos_lnum
    (p.Lexing.pos_cnum - p.Lexing.pos_bol)

let seed_effects glob info =
  let co = contract_exns glob info.i_key in
  List.iter
    (fun s ->
      match s.s_kind with
      | S_exn x when (not s.s_poly) && not (absorbed s.s_hsnap x) ->
          let w = wit_of info s in
          if not (List.exists (fun (y, _) -> exn_matches x y) info.i_eff) then
            info.i_eff <- info.i_eff @ [ (x, w) ];
          if (not (in_contract co x)) && not (List.mem_assoc x info.i_undecl)
          then info.i_undecl <- info.i_undecl @ [ (x, w) ]
      | _ -> ())
    info.i_sites

(* A callee's effects flow through a call site, filtered by the
   handler frames active there; the undeclared set also by the
   caller's own contract. *)
let transfer glob info s callee =
  let co = contract_exns glob info.i_key in
  let flow keep own theirs =
    List.fold_left
      (fun acc (x, w) ->
        if keep x && (not (absorbed s.s_hsnap x)) && not (List.mem_assoc x acc)
        then acc @ [ (x, Front.via callee.i_key w) ]
        else acc)
      own theirs
  in
  let eff = flow (fun _ -> true) info.i_eff callee.i_eff in
  let undecl =
    flow (fun x -> not (in_contract co x)) info.i_undecl callee.i_undecl
  in
  let changed =
    List.length eff <> List.length info.i_eff
    || List.length undecl <> List.length info.i_undecl
  in
  info.i_eff <- eff;
  info.i_undecl <- undecl;
  changed

let calls info =
  List.filter_map
    (fun s -> match s.s_kind with S_call key -> Some (key, s) | S_exn _ -> None)
    info.i_sites

(* ------------------------------------------------------------------ *)
(* Pass 3: diagnostics                                                  *)

(* E1: an undeclared exception escapes a task closure. *)
let report_e1 glob =
  List.iter
    (fun root ->
      let task = match root.i_task with Some t -> t | None -> "task" in
      List.iter
        (fun (x, w) ->
          add glob
            (Front.diag "E1" root.i_file root.i_loc
               (Printf.sprintf
                  "exception %s may escape this %s task closure (%s): a \
                   raising task poisons the pool; catch it inside the task \
                   or declare it in the provider's [@cts.raises] mli \
                   contract"
                  x task w)))
        root.i_undecl)
    (Front.roots glob.table)

(* E2: contract verification — violated and stale directions. *)
let report_e2 glob =
  let contracts =
    List.sort
      (fun a b ->
        compare
          (a.co_file, a.co_line, a.co_col, a.co_key)
          (b.co_file, b.co_line, b.co_col, b.co_key))
      glob.contract_list
  in
  List.iter
    (fun co ->
      match Front.find glob.table co.co_key with
      | None -> ()
      | Some info ->
          let d message =
            add glob
              {
                Front.rule = "E2";
                file = co.co_file;
                line = co.co_line;
                col = co.co_col;
                message;
              }
          in
          let m, n = co.co_key in
          List.iter
            (fun (x, w) ->
              if not (in_contract co.co_exns x) then
                d
                  (Printf.sprintf
                     "[@cts.raises] contract on %s.%s is violated: the \
                      implementation may raise %s (%s); declare it or \
                      handle it"
                     m n x w))
            info.i_eff;
          SS.iter
            (fun x ->
              if not (List.exists (fun (y, _) -> exn_matches x y) info.i_eff)
              then
                d
                  (Printf.sprintf
                     "stale [@cts.raises] on %s.%s: the implementation \
                      cannot raise %s; drop it from the contract"
                     m n x))
            co.co_exns)
    contracts

(* E3: a raising path between acquire and release. *)
let report_e3 glob =
  List.iter
    (fun info ->
      List.iter
        (fun s ->
          let candidates =
            match s.s_kind with
            | S_exn x ->
                let what =
                  if s.s_poly then "a re-raised in-flight exception"
                  else x
                in
                [ (x, Printf.sprintf "%s may raise %s" s.s_what what) ]
            | S_call ((m, n) as key) -> (
                match Front.find glob.table key with
                | Some callee ->
                    List.map
                      (fun (x, w) ->
                        ( x,
                          Printf.sprintf "call to %s.%s may raise %s (%s)" m
                            n x w ))
                      callee.i_eff
                | None -> [])
          in
          List.iter
            (fun b ->
              List.iter
                (fun (x, desc) ->
                  if leaks b x s.s_hsnap then
                    add glob
                      (Front.diag "E3" info.i_file s.s_loc
                         (Printf.sprintf
                            "%s while %s (opened at line %d) is pending \
                             release: the raising path leaks it; use \
                             Mutex.protect/Fun.protect or release in an \
                             exception handler"
                            desc b.b_desc b.b_line)))
                candidates)
            s.s_bsnap)
        info.i_sites)
    (Front.summaries glob.table)

(* E5: partial calls on unproven shapes in task-reachable code. *)
let report_e5 glob reached =
  List.iter
    (fun info ->
      if List.memq info reached then
        List.iter
          (fun (prim, loc) ->
            add glob
              (Front.diag "E5" info.i_file loc
                 (Printf.sprintf
                    "partial %s on a value of unproven shape is reachable \
                     from a Parallel/Domain task (via %s.%s); match the \
                     shape explicitly or annotate [@cts.partial_ok]"
                    prim (fst info.i_key) (snd info.i_key))))
          info.i_partials)
    (Front.summaries glob.table)

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)

type result = {
  diagnostics : Front.diagnostic list;
  raises : ((string * string) * string list) list;
}

let analyze (front : Front.t) =
  let glob =
    {
      table = Front.table ();
      exndecls = exception_decls front;
      contracts = Hashtbl.create 64;
      contract_list = [];
      next_uid = 0;
      diags = [];
    }
  in
  summarize glob front;
  (* mli contracts after the walk, so an mli contract replaces an
     ml-level [@cts.raises] on the same definition. *)
  List.iter
    (fun (file, sg) -> do_interface glob file sg)
    (Front.interfaces front);
  let infos = Front.summaries glob.table in
  List.iter
    (fun i ->
      i.i_sites <- List.rev i.i_sites;
      i.i_partials <- List.rev i.i_partials;
      seed_effects glob i)
    infos;
  Front.propagate glob.table ~edges:calls (transfer glob);
  let roots = Front.roots glob.table in
  report_e1 glob;
  report_e2 glob;
  report_e3 glob;
  report_e5 glob
    (Front.reachable glob.table roots (fun i -> List.map fst (calls i)));
  {
    diagnostics = glob.diags;
    raises =
      List.sort compare
        (List.filter_map
           (fun info ->
             if info.i_public && info.i_eff <> [] then
               Some (info.i_key, List.sort compare (List.map fst info.i_eff))
             else None)
           infos);
  }
