(* Interprocedural concurrency-effect race analyzer (C1-C5).
   See race.mli for the rule set.

   Pass 1 walks every top-level definition into an effect summary.
   The walk threads a flow-sensitive lock state through sequences and
   let-chains: [Mutex.lock m] pushes the resolved identity of [m],
   [Mutex.unlock m] pops it, [Mutex.protect m f] brackets the walk of
   [f]'s body. Branches are walked with the entry state and join back
   to it (the repository convention is balanced lock/unlock per
   definition; an unbalanced branch only makes the analysis
   conservative, never silent). Lambdas are walked under the current
   lock state — [Fun.protect] runs its thunk immediately — except the
   deferred-execution closures (arguments of [Parallel.map/iter] and
   [Domain.spawn]), which start fresh root summaries with an empty
   lock state: a task never inherits its submitter's locks.

   Pass 2 computes fixpoints over the call graph (transitive lock
   acquisition for C3, transitive Domain.DLS use for "domain-local"
   claim verification, transitive may-block for C4) and the set of
   summaries reachable from task roots.

   Pass 3 emits C1-C5. Everything is emitted into one list and sorted
   through Front.sort_diagnostics, and all cross-function grouping
   (C2 lock-set comparison, C3 pair matching) sorts its sites first,
   so the report is identical under any file-visit order. The same
   summaries feed rule L1 (lint.ml), which trusts the claims this
   pass verifies. *)

open Parsetree

(* Does the expression syntactically involve a Domain.DLS access?
   (Used for dls-derived bindings and the C5 escape check.) *)
let mentions_dls e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e' ->
          (match e'.pexp_desc with
          | Pexp_ident { txt; _ } -> (
              match Longident.flatten txt with
              | [ "Domain"; "DLS"; _ ] | [ "DLS"; _ ] -> found := true
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e');
    }
  in
  it.expr it e;
  !found

(* ------------------------------------------------------------------ *)
(* Primitive tables                                                     *)

let is_atomic_prim d =
  String.length d > 7 && String.sub d 0 7 = "Atomic."

let dls_allocs = [ "Domain.DLS.new_key"; "DLS.new_key" ]

(* Blocking / allocating-heavy primitives for C4. [Condition.wait] is
   deliberately absent: it releases the mutex while waiting, which is
   the one blessed blocking-under-lock pattern. [Printf.sprintf] and
   friends are absent too — no shared channel involved. *)
let blocking_prims =
  [
    "input_line"; "input_char"; "input_byte"; "input_value"; "input";
    "really_input"; "really_input_string"; "read_line"; "read_int";
    "read_int_opt"; "read_float"; "read_float_opt";
    "open_in"; "open_in_bin"; "open_in_gen";
    "open_out"; "open_out_bin"; "open_out_gen";
    "print_string"; "print_endline"; "print_newline"; "print_char";
    "print_int"; "print_float"; "print_bytes";
    "prerr_string"; "prerr_endline"; "prerr_newline"; "prerr_char";
    "output_string"; "output_char"; "output_bytes"; "output";
    "output_substring"; "output_value"; "flush"; "flush_all";
    "Printf.printf"; "Printf.eprintf"; "Printf.fprintf"; "Printf.kfprintf";
    "Printf.ifprintf"; "Format.printf"; "Format.eprintf"; "Format.fprintf";
    "Sys.command"; "Thread.delay"; "Domain.join";
  ]

let blocking_modules = [ "Unix"; "In_channel"; "Out_channel" ]

let blocking_head segs =
  let d = Front.dotted segs in
  if List.mem d blocking_prims then Some d
  else
    match segs with
    | m :: _ :: _ when List.mem m blocking_modules -> Some d
    | _ -> None

(* ------------------------------------------------------------------ *)
(* Claims                                                               *)

type claim = {
  cl_mech : string;  (* "mutex" | "atomic" | "domain-local" *)
  cl_lock : string option;  (* the NAME of a "mutex:NAME" payload *)
  cl_file : string;
  cl_line : int;
  cl_col : int;
  mutable cl_used : bool;  (* some mutation was recorded in its scope *)
}

(* ------------------------------------------------------------------ *)
(* Summaries                                                            *)

type wclass =
  | W_local  (* freshly allocated in scope: never reported *)
  | W_opaque  (* rooted at a parameter or a let-bound value of unknown origin *)
  | W_shared of string  (* resolved module-level identity *)
  | W_dls  (* rooted at a Domain.DLS.get result *)

type write = {
  w_prim : string;  (* ":=", "Hashtbl.replace", "<- (mutable field set)" *)
  w_field : string option;  (* the field a mutable-field set assigns *)
  w_class : wclass;
  w_id : string option;  (* stable identity for C2 grouping *)
  w_atomic : bool;
  w_value_dls : bool;  (* stored value derives from Domain.DLS (C5) *)
  w_locks : string list;  (* held at the write, outermost first *)
  w_claim : claim option;
  w_loc : Location.t;
}

type call = {
  c_key : string * string;  (* resolved callee *)
  c_locks : string list;  (* held at the reference *)
  c_shielded : bool;  (* under a try body or a protect combinator *)
  c_loc : Location.t;
}

type info = {
  i_file : string;
  i_pool : bool;  (* a Parallel.map/iter task root *)
  mutable i_writes : write list;
  mutable i_calls : call list;
  mutable i_acquires : string list;
  mutable i_pairs : (string * string * Location.t) list;
      (* (outer, inner): inner acquired while outer held, same body *)
  mutable i_blocking : (string * string list * Location.t) list;
  mutable i_dls : bool;
  (* pass-2 results *)
  mutable i_trans_dls : bool;
  mutable i_trans_acq : string list;
  mutable i_may_block : string option;  (* witness call chain *)
}

type global = {
  table : info Front.table;
  mutexes : (string * string) list;  (* module-level Mutex.create bindings *)
  mutable claims : claim list;
  mutable diags : Front.diagnostic list;
}

type ctx = {
  glob : global;
  file : Front.file;
  info : info;
  defname : string;
  in_root : bool;
  claim : claim option;  (* innermost enclosing [@cts.guarded] *)
  blocking_ok : bool;  (* [@cts.blocking_ok] in scope *)
  shielded : bool;  (* call edges made here are under a try body or a
                       Mutex.protect / Fun.protect combinator *)
}

let add glob d = glob.diags <- d :: glob.diags

let new_info file ~pool _key =
  {
    i_file = file;
    i_pool = pool;
    i_writes = [];
    i_calls = [];
    i_acquires = [];
    i_pairs = [];
    i_blocking = [];
    i_dls = false;
    i_trans_dls = false;
    i_trans_acq = [];
    i_may_block = None;
  }

(* ------------------------------------------------------------------ *)
(* Environment                                                          *)

module Env = Map.Make (String)

type kind = KFresh | KFn | KDls | KPlain

let rec kind_of_rhs e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> KFn
  | Pexp_record _ | Pexp_array _ -> KFresh
  | Pexp_apply (f, _) -> (
      match Front.apply_head f with
      | Some segs ->
          let d = Front.dotted segs in
          if List.mem d Front.fresh_allocs then KFresh
          else if List.mem d dls_allocs || d = "DLS.get" then KDls
          else if
            match segs with
            | [ "Domain"; "DLS"; "get" ] -> true
            | _ -> false
          then KDls
          else KPlain
      | None -> KPlain)
  | Pexp_constraint (e', _) | Pexp_lazy e' -> kind_of_rhs e'
  | _ -> if mentions_dls e then KDls else KPlain

let bind kind env p =
  List.fold_left (fun e v -> Env.add v kind e) env (Front.pattern_vars p)

(* ------------------------------------------------------------------ *)
(* Attributes                                                           *)

let guards_of_attrs ctx (attrs : attributes) =
  List.fold_left
    (fun ctx (a : attribute) ->
      match a.attr_name.Location.txt with
      | "cts.guarded" -> (
          match
            Option.bind (Front.string_payload a.attr_payload)
              Front.guard_mechanism
          with
          | Some (mech, lock) ->
              let p = a.attr_loc.Location.loc_start in
              let cl =
                {
                  cl_mech = mech;
                  cl_lock = lock;
                  cl_file = ctx.file.Front.path;
                  cl_line = p.Lexing.pos_lnum;
                  cl_col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
                  cl_used = false;
                }
              in
              ctx.glob.claims <- cl :: ctx.glob.claims;
              { ctx with claim = Some cl }
          | None -> ctx (* malformed payloads are L1's job *))
      | "cts.blocking_ok" -> { ctx with blocking_ok = true }
      | _ -> ctx)
    ctx attrs

(* ------------------------------------------------------------------ *)
(* Identity resolution                                                  *)

let field_name (lid : Longident.t) =
  match lid with Lident f | Ldot (_, f) -> f | Lapply _ -> "?"

(* Resolved identity of a lock expression. Module-level mutexes get
   their qualified path; record fields a field-keyed identity (every
   [pool.mutex] is one lock as far as the analysis is concerned —
   coarse, but exactly the granularity the repo's pool uses); locals
   and parameters an opaque per-name identity. *)
let rec lock_id ctx env e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } -> (
      match Env.find_opt x env with
      | Some (KPlain | KFn) -> "<local:" ^ x ^ ">"
      | Some KFresh -> "<fresh:" ^ x ^ ">"
      | Some KDls -> "<dls:" ^ x ^ ">"
      | None -> ctx.file.Front.modname ^ "." ^ x)
  | Pexp_ident { txt; _ } -> (
      match Front.qualified ctx.file txt with
      | Some (m, x) -> m ^ "." ^ x
      | None -> "<anon>")
  | Pexp_field (_, { txt; _ }) -> "<." ^ field_name txt ^ ">"
  | Pexp_constraint (e', _) -> lock_id ctx env e'
  | _ -> "<anon>"

(* Classify a mutation target: peel field projections down to the head
   identifier, then decide locality from the environment or resolve a
   module-level identity. *)
let classify_target ctx env (target : expression option) =
  match target with
  | None -> (W_opaque, None)
  | Some t -> (
      let rec peel fields e =
        match e.pexp_desc with
        | Pexp_field (e', { txt; _ }) -> peel (field_name txt :: fields) e'
        | Pexp_constraint (e', _) -> peel fields e'
        | _ -> (fields, e)
      in
      let fields, base = peel [] t in
      let field_id () =
        match fields with [] -> None | f :: _ -> Some ("<." ^ f ^ ">")
      in
      match base.pexp_desc with
      | Pexp_ident { txt = Longident.Lident x; _ } -> (
          match Env.find_opt x env with
          | Some KFresh -> (W_local, None)
          | Some KDls -> (W_dls, None)
          | Some (KPlain | KFn) -> (W_opaque, field_id ())
          | None ->
              let id = ctx.file.Front.modname ^ "." ^ x in
              (W_shared id, Some id))
      | Pexp_ident { txt; _ } -> (
          match Front.qualified ctx.file txt with
          | Some (m, x) ->
              let id = m ^ "." ^ x in
              (W_shared id, Some id)
          | None -> (W_opaque, field_id ()))
      | Pexp_apply (f, _) -> (
          (* A projection through a call: [ (current ()).counts ].
             DLS-returning callees make the target domain-local. *)
          match Front.apply_head f with
          | Some segs when List.mem (Front.dotted segs) dls_allocs ->
              (W_dls, None)
          | Some [ "Domain"; "DLS"; "get" ] | Some [ "DLS"; "get" ] ->
              (W_dls, None)
          | _ -> (W_opaque, field_id ()))
      | _ -> (W_opaque, field_id ()))

(* ------------------------------------------------------------------ *)
(* The walker                                                           *)

let add_call ctx locks key loc =
  ctx.info.i_calls <-
    { c_key = key; c_locks = locks; c_shielded = ctx.shielded; c_loc = loc }
    :: ctx.info.i_calls

let note_ref ctx env locks (lid : Longident.t) loc =
  match lid with
  | Lident x -> (
      match Env.find_opt x env with
      | Some KFn ->
          (* Local function referenced from a pool-task lambda: link
             the root to the whole enclosing definition. *)
          if ctx.in_root then
            add_call ctx locks (ctx.file.Front.modname, ctx.defname) loc
      | Some _ -> ()
      | None -> add_call ctx locks (ctx.file.Front.modname, x) loc)
  | _ ->
      Option.iter
        (fun key -> add_call ctx locks key loc)
        (Front.qualified ctx.file lid)

let record_write ctx env locks ~prim ~field ~atomic target value loc =
  let cls, id = classify_target ctx env target in
  (match ctx.claim with
  | Some cl when cls <> W_local -> cl.cl_used <- true
  | _ -> ());
  if cls <> W_local then
    ctx.info.i_writes <-
      {
        w_prim = prim;
        w_field = field;
        w_class = cls;
        w_id = id;
        w_atomic = atomic;
        w_value_dls =
          (match value with Some v -> mentions_dls v | None -> false)
          || (match value with
             | Some { pexp_desc = Pexp_ident { txt = Longident.Lident x; _ }; _ }
               ->
                 Env.find_opt x env = Some KDls
             | _ -> false);
        w_locks = locks;
        w_claim = ctx.claim;
        w_loc = loc;
      }
      :: ctx.info.i_writes

let acquire ctx locks l loc =
  ctx.info.i_acquires <- l :: ctx.info.i_acquires;
  List.iter (fun h -> ctx.info.i_pairs <- (h, l, loc) :: ctx.info.i_pairs) locks;
  locks @ [ l ]

let release locks l =
  (* Drop the innermost occurrence. *)
  let rec go = function
    | [] -> []
    | x :: tl -> if x = l && not (List.mem l tl) then tl else x :: go tl
  in
  go locks

(* [walk] returns the lock state after the expression so sequences and
   let-chains thread it. *)
let rec walk ctx env locks e : string list =
  let ctx = guards_of_attrs ctx e.pexp_attributes in
  match e.pexp_desc with
  | Pexp_ident { txt; _ } ->
      note_ref ctx env locks txt e.pexp_loc;
      (match txt with
      | Longident.Ldot (Longident.Ldot (Longident.Lident "Domain", "DLS"), _)
      | Longident.Ldot (Longident.Lident "DLS", _) ->
          ctx.info.i_dls <- true
      | _ -> ());
      locks
  | Pexp_apply (f, args) -> walk_apply ctx env locks e f args
  | Pexp_setfield (tgt, fld, v) ->
      record_write ctx env locks ~prim:"<- (mutable field set)"
        ~field:(Some (field_name fld.Location.txt)) ~atomic:false
        (Some { e with pexp_desc = Pexp_field (tgt, fld) })
        (Some v) e.pexp_loc;
      let locks' = walk ctx env locks tgt in
      walk ctx env locks' v
  | Pexp_setinstvar (_, v) ->
      record_write ctx env locks ~prim:"<- (instance variable set)"
        ~field:None ~atomic:false None (Some v) e.pexp_loc;
      walk ctx env locks v
  | Pexp_let (rf, vbs, body) ->
      let env' =
        List.fold_left
          (fun env vb ->
            match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt; _ } -> Env.add txt (kind_of_rhs vb.pvb_expr) env
            | _ -> bind KPlain env vb.pvb_pat)
          env vbs
      in
      let rhs_env = if rf = Asttypes.Recursive then env' else env in
      let locks' =
        List.fold_left
          (fun lks vb ->
            let ctx = guards_of_attrs ctx vb.pvb_attributes in
            walk ctx rhs_env lks vb.pvb_expr)
          locks vbs
      in
      walk ctx env' locks' body
  | Pexp_fun (_, default, pat, body) ->
      Option.iter (fun d -> ignore (walk ctx env locks d)) default;
      ignore (walk ctx (bind KPlain env pat) locks body);
      locks
  | Pexp_function cases ->
      walk_cases ctx env locks cases;
      locks
  | Pexp_match (scrut, cases) ->
      (* [match e with ... | exception _ -> ...] handles like a try:
         calls in the scrutinee are shielded for the C4 raise rule. *)
      let handles =
        List.exists
          (fun c ->
            match c.pc_lhs.ppat_desc with
            | Ppat_exception _ -> true
            | _ -> false)
          cases
      in
      let locks' = walk { ctx with shielded = ctx.shielded || handles } env locks scrut in
      walk_cases ctx env locks' cases;
      locks'
  | Pexp_try (scrut, cases) ->
      (* Calls in the try body are shielded: an exception from them is
         caught (or observed and the lock released) right here. *)
      let locks' = walk { ctx with shielded = true } env locks scrut in
      walk_cases ctx env locks' cases;
      locks'
  | Pexp_ifthenelse (c, a, b) ->
      let locks' = walk ctx env locks c in
      ignore (walk ctx env locks' a);
      Option.iter (fun b -> ignore (walk ctx env locks' b)) b;
      locks'
  | Pexp_sequence (a, b) ->
      let locks' = walk ctx env locks a in
      walk ctx env locks' b
  | Pexp_while (c, body) ->
      let locks' = walk ctx env locks c in
      ignore (walk ctx env locks' body);
      locks'
  | Pexp_for (pat, lo, hi, _, body) ->
      let locks' = walk ctx env locks lo in
      let locks' = walk ctx env locks' hi in
      ignore (walk ctx (bind KPlain env pat) locks' body);
      locks'
  | _ ->
      let it =
        {
          Ast_iterator.default_iterator with
          expr = (fun _ e' -> ignore (walk ctx env locks e'));
          case =
            (fun _ c ->
              let env = bind KPlain env c.pc_lhs in
              Option.iter (fun g -> ignore (walk ctx env locks g)) c.pc_guard;
              ignore (walk ctx env locks c.pc_rhs));
          attributes = (fun _ _ -> ());
          pat = (fun _ _ -> ());
          typ = (fun _ _ -> ());
        }
      in
      Ast_iterator.default_iterator.expr it e;
      locks

and walk_cases ctx env locks cases =
  List.iter
    (fun c ->
      let env = bind KPlain env c.pc_lhs in
      Option.iter (fun g -> ignore (walk ctx env locks g)) c.pc_guard;
      ignore (walk ctx env locks c.pc_rhs))
    cases

and walk_closure_as_root ctx env ~pool arg =
  (* Deferred-execution closure: its effects belong to a fresh root
     summary and it never inherits the submitter's lock state. *)
  match arg.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_ident _ ->
      let rinfo =
        Front.root ctx.glob.table ctx.file arg.pexp_loc
          (new_info ctx.file.Front.path ~pool)
      in
      ignore (walk { ctx with info = rinfo; in_root = true } env [] arg)
  | _ -> ignore (walk ctx env [] arg)

and walk_apply ctx env locks e f args =
  match Front.apply_head f with
  | None ->
      let locks' = walk ctx env locks f in
      List.fold_left (fun lks (_, a) -> walk ctx env lks a) locks' args
  | Some segs -> (
      let d = Front.dotted segs in
      let pos = Front.nolabel_args args in
      let task = Front.task_call ctx.file segs in
      match (d, pos) with
      | "Mutex.lock", m :: _ ->
          ignore (walk ctx env locks m);
          acquire ctx locks (lock_id ctx env m) e.pexp_loc
      | "Mutex.unlock", m :: _ ->
          ignore (walk ctx env locks m);
          release locks (lock_id ctx env m)
      | "Mutex.protect", m :: rest ->
          ignore (walk ctx env locks m);
          let inner = acquire ctx locks (lock_id ctx env m) e.pexp_loc in
          let ctx = { ctx with shielded = true } in
          List.iter (fun a -> ignore (walk ctx env inner a)) rest;
          locks
      | "Fun.protect", _ ->
          (* ~finally runs on unwind: calls inside are exception-safe
             with respect to lock leaks. *)
          let ctx = { ctx with shielded = true } in
          List.iter (fun (_, a) -> ignore (walk ctx env locks a)) args;
          locks
      | _ when task = Some Front.Spawn ->
          List.iter (walk_closure_as_root ctx env ~pool:false) pos;
          locks
      | _ ->
          (* Mutation primitives. *)
          (match List.assoc_opt d Front.write_prims with
          | Some (tgt_idx, val_idx) ->
              let target = List.nth_opt pos tgt_idx in
              let value =
                Option.bind val_idx (fun i -> List.nth_opt pos i)
              in
              record_write ctx env locks ~prim:d ~field:None
                ~atomic:(is_atomic_prim d) target value e.pexp_loc
          | None -> ());
          (* Blocking calls. *)
          (match blocking_head segs with
          | Some b when not ctx.blocking_ok ->
              ctx.info.i_blocking <- (b, locks, e.pexp_loc) :: ctx.info.i_blocking
          | _ -> ());
          ignore (walk ctx env locks f);
          if task = Some Front.Pool then begin
            (* First positional argument is the pool, the rest carry
               the task closures; walk closures as roots, everything
               else normally. *)
            List.iteri
              (fun i a ->
                if i = 0 then ignore (walk ctx env locks a)
                else
                  match a.pexp_desc with
                  | Pexp_fun _ | Pexp_function _ ->
                      walk_closure_as_root ctx env ~pool:true a
                  | Pexp_ident _ ->
                      (* Both: the name is callable from the task, and
                         the reference itself is recorded normally. *)
                      walk_closure_as_root ctx env ~pool:true a;
                      ignore (walk ctx env locks a)
                  | _ -> ignore (walk ctx env locks a))
              pos;
            List.iter
              (fun (lbl, a) ->
                match lbl with
                | Asttypes.Nolabel -> ()
                | _ -> ignore (walk ctx env locks a))
              args;
            locks
          end
          else
            List.fold_left (fun lks (_, a) -> walk ctx env lks a) locks args)

(* ------------------------------------------------------------------ *)
(* Pass 1: module-level mutexes, then the summaries                    *)

let module_mutexes (front : Front.t) =
  let rec head e =
    match e.pexp_desc with
    | Pexp_apply (f, _) -> Front.apply_head f
    | Pexp_constraint (e', _) -> head e'
    | _ -> None
  in
  List.filter_map
    (fun (d : Front.def) ->
      match head d.expr with
      | Some segs when Front.dotted segs = "Mutex.create" ->
          Some (d.file.modname, d.name)
      | _ -> None)
    front.defs

let summarize glob (front : Front.t) =
  List.iter
    (fun (d : Front.def) ->
      let info =
        Front.summary glob.table (d.file.modname, d.name)
          (new_info d.file.path ~pool:false)
      in
      let ctx =
        {
          glob;
          file = d.file;
          info;
          defname = d.name;
          in_root = false;
          claim = None;
          blocking_ok = false;
          shielded = false;
        }
      in
      ignore (walk (guards_of_attrs ctx d.attrs) Env.empty [] d.expr))
    front.defs

(* ------------------------------------------------------------------ *)
(* Pass 2: fixpoints and reachability                                   *)

let seed info =
  if info.i_dls then info.i_trans_dls <- true;
  List.iter
    (fun l ->
      if not (List.mem l info.i_trans_acq) then
        info.i_trans_acq <- l :: info.i_trans_acq)
    info.i_acquires;
  match info.i_blocking with
  | (b, _, _) :: _ -> info.i_may_block <- Some b
  | [] -> ()

let transfer info call callee =
  let dls = callee.i_trans_dls && not info.i_trans_dls in
  if dls then info.i_trans_dls <- true;
  let acq =
    List.filter (fun l -> not (List.mem l info.i_trans_acq)) callee.i_trans_acq
  in
  info.i_trans_acq <- List.rev_append acq info.i_trans_acq;
  let blocks =
    match (callee.i_may_block, info.i_may_block) with
    | Some w, None ->
        info.i_may_block <- Some (Front.via call.c_key w);
        true
    | _ -> false
  in
  dls || acq <> [] || blocks

let callees info = List.map (fun c -> c.c_key) info.i_calls

(* ------------------------------------------------------------------ *)
(* Pass 3: diagnostics                                                  *)

let known_mutex glob name =
  List.exists (fun (m, n) -> n = name || m ^ "." ^ n = name) glob.mutexes

let lock_matches name l =
  l = name || Front.has_suffix ("." ^ name) l

let describe_target w =
  let prim =
    match w.w_field with Some f -> f ^ " " ^ w.w_prim | None -> w.w_prim
  in
  match w.w_id with Some id -> Printf.sprintf "%s (%s)" prim id | None -> prim

let mechanism_list = "\"mutex[:NAME]\"|\"atomic\"|\"domain-local\""

(* C1: every shared mutation reachable from a task must be provably
   protected; [@cts.guarded] claims are verified, never trusted.
   Claim verification runs over ALL summaries — a claim is a
   concurrency-safety statement whether or not today's call graph
   reaches it from a task; only the unclaimed-unguarded-write
   diagnostic is gated on task reachability. *)
let report_c1 glob reached =
  List.iter
    (fun info ->
      let task_reached = List.memq info reached in
      List.iter
        (fun w ->
          let claim_desc cl =
            match cl.cl_lock with
            | Some n -> Printf.sprintf "\"mutex:%s\"" n
            | None -> Printf.sprintf "%S" cl.cl_mech
          in
          let emit msg = add glob (Front.diag "C1" info.i_file w.w_loc msg) in
          if w.w_atomic then ()
          else if w.w_locks <> [] then begin
            match w.w_claim with
            | Some ({ cl_mech = "mutex"; cl_lock = Some name; _ } as cl) ->
                if
                  known_mutex glob name
                  && not (List.exists (lock_matches name) w.w_locks)
                then
                  emit
                    (Printf.sprintf
                       "[@cts.guarded %s] not verified: %s executes under \
                        {%s}, not under mutex %s"
                       (claim_desc cl) (describe_target w)
                       (String.concat ", " w.w_locks)
                       name)
            | _ -> ()
          end
          else begin
            match w.w_claim with
            | _ when w.w_class = W_dls -> ()
            | Some { cl_mech = "domain-local"; _ } when info.i_trans_dls -> ()
            | Some ({ cl_mech = "domain-local"; _ } as cl) ->
                emit
                  (Printf.sprintf
                     "[@cts.guarded %s] not verified: %s but no Domain.DLS \
                      access on the path"
                     (claim_desc cl) (describe_target w))
            | Some ({ cl_mech = "atomic"; _ } as cl) ->
                emit
                  (Printf.sprintf
                     "[@cts.guarded %s] not verified: %s is not an Atomic.* \
                      operation"
                     (claim_desc cl) (describe_target w))
            | Some ({ cl_mech = "mutex"; _ } as cl) ->
                emit
                  (Printf.sprintf
                     "[@cts.guarded %s] not verified: %s executes with no \
                      mutex held on the actual path"
                     (claim_desc cl) (describe_target w))
            | Some _ | None ->
                if task_reached then
                  emit
                    (Printf.sprintf
                       "%s writes shared state reachable from a Parallel \
                        pool task with no lock held, no atomic primitive \
                        and no verifiable [@cts.guarded %s] mechanism on \
                        the path"
                       (describe_target w) mechanism_list)
          end)
        info.i_writes)
    (Front.summaries glob.table)

(* Claim-level checks: a "mutex:NAME" payload must name a module-level
   mutex that exists; a claim whose scope performs no mutation is
   stale. Emitted over the sorted claim list for determinism. *)
let report_claims glob =
  let claims =
    List.sort_uniq
      (fun a b ->
        compare
          (a.cl_file, a.cl_line, a.cl_col, a.cl_mech, a.cl_lock)
          (b.cl_file, b.cl_line, b.cl_col, b.cl_mech, b.cl_lock))
      glob.claims
  in
  List.iter
    (fun cl ->
      let d rule message =
        add glob
          { Front.rule; file = cl.cl_file; line = cl.cl_line; col = cl.cl_col;
            message }
      in
      match cl.cl_lock with
      | Some name when not (known_mutex glob name) ->
          d "C1"
            (Printf.sprintf
               "[@cts.guarded \"mutex:%s\"] names no module-level mutex \
                (no `let %s = Mutex.create ()` found)"
               name name)
      | _ ->
          if not cl.cl_used then
            d "C1"
              (Printf.sprintf
                 "stale [@cts.guarded %S%s]: the annotated code performs no \
                  shared mutation; remove the annotation"
                 cl.cl_mech
                 (match cl.cl_lock with
                 | Some n -> Printf.sprintf " (mutex %s)" n
                 | None -> "")))
    claims

let pos (loc : Location.t) =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

(* C2: the same shared state written under disjoint non-empty lock
   sets at two sites. *)
let report_c2 glob =
  let sites : (string, (string * int * int * string list) list) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun info ->
      List.iter
        (fun w ->
          match w.w_id with
          | Some id when w.w_locks <> [] && not w.w_atomic ->
              let line, col = pos w.w_loc in
              let prev = Option.value ~default:[] (Hashtbl.find_opt sites id) in
              Hashtbl.replace sites id
                ((info.i_file, line, col, w.w_locks) :: prev)
          | _ -> ())
        info.i_writes)
    (Front.summaries glob.table);
  let ids =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) sites [])
  in
  List.iter
    (fun id ->
      match List.sort_uniq compare (Hashtbl.find sites id) with
      | [] | [ _ ] -> ()
      | (f0, l0, c0, locks0) :: rest ->
          List.iter
            (fun (file, line, col, locks) ->
              if not (List.exists (fun x -> List.mem x locks0) locks) then
                add glob
                  {
                    Front.rule = "C2";
                    file;
                    line;
                    col;
                    message =
                      Printf.sprintf
                        "inconsistent lock set: %s is guarded by {%s} here \
                         but by {%s} at %s:%d:%d"
                        id
                        (String.concat ", " locks)
                        (String.concat ", " locks0)
                        f0 l0 c0;
                  })
            rest)
    ids

(* C3: lock-order inversion (and non-reentrant re-acquisition). Pair
   sources: local pairs, plus (held, transitively-acquired-by-callee)
   at every call site made under a lock. *)
let report_c3 glob =
  let pairs : (string * string, string * (int * int)) Hashtbl.t =
    Hashtbl.create 64
  in
  let add_pair outer inner file loc =
    let site = (file, pos loc) in
    match Hashtbl.find_opt pairs (outer, inner) with
    | Some best when compare best site < 0 -> ()
    | _ -> Hashtbl.replace pairs (outer, inner) site
  in
  List.iter
    (fun info ->
      List.iter (fun (o, i, loc) -> add_pair o i info.i_file loc) info.i_pairs;
      List.iter
        (fun c ->
          match Front.find glob.table c.c_key with
          | Some callee when c.c_locks <> [] ->
              List.iter
                (fun h ->
                  List.iter
                    (fun l -> add_pair h l info.i_file c.c_loc)
                    callee.i_trans_acq)
                c.c_locks
          | _ -> ())
        info.i_calls)
    (Front.summaries glob.table);
  let entries =
    List.sort compare
      (Hashtbl.fold (fun k site acc -> (k, site) :: acc) pairs [])
  in
  List.iter
    (fun ((o, i), (file, (line, col))) ->
      let d message =
        add glob { Front.rule = "C3"; file; line; col; message }
      in
      if o = i then
        d
          (Printf.sprintf
             "lock %s acquired while already held (OCaml mutexes are not \
              reentrant: self-deadlock)"
             o)
      else if o < i then
        match List.assoc_opt (i, o) entries with
        | Some (f', (l', c')) ->
            d
              (Printf.sprintf
                 "lock-order inversion: %s is acquired under %s here, but \
                  %s under %s at %s:%d:%d"
                 i o o i f' l' c')
        | None -> ())
    entries

(* C4: a blocking call while holding a lock — directly, or via a callee
   that may block — and, in the raise direction, a call made while
   holding a lock, outside any try body or protect combinator, to a
   callee whose inferred may-raise set (the exception-flow analyzer's
   table, Exc) is non-empty: a raise there unwinds past the unlock and
   leaks the lock. *)
let report_c4 glob raises =
  let may_raise = Hashtbl.create 256 in
  List.iter (fun (k, exns) -> Hashtbl.replace may_raise k exns) raises;
  List.iter
    (fun info ->
      List.iter
        (fun (prim, locks, loc) ->
          if locks <> [] then
            add glob
              (Front.diag "C4" info.i_file loc
                 (Printf.sprintf
                    "blocking call %s while holding {%s}; move the I/O \
                     outside the critical section or annotate \
                     [@cts.blocking_ok]"
                    prim
                    (String.concat ", " locks))))
        info.i_blocking;
      List.iter
        (fun c ->
          let m, n = c.c_key in
          let held = String.concat ", " c.c_locks in
          if c.c_locks <> [] then begin
            (match Front.find glob.table c.c_key with
            | Some { i_may_block = Some witness; _ } ->
                add glob
                  (Front.diag "C4" info.i_file c.c_loc
                     (Printf.sprintf
                        "call to %s.%s may block (%s) while holding {%s}; \
                         move the I/O outside the critical section or \
                         annotate [@cts.blocking_ok]"
                        m n witness held))
            | _ -> ());
            match Hashtbl.find_opt may_raise c.c_key with
            | Some (_ :: _ as exns) when not c.c_shielded ->
                add glob
                  (Front.diag "C4" info.i_file c.c_loc
                     (Printf.sprintf
                        "call to %s.%s may raise (%s) while holding {%s}: a \
                         raise here unwinds past the unlock and leaks the \
                         lock; wrap the critical section in Mutex.protect \
                         or catch and release"
                        m n (String.concat ", " exns) held))
            | _ -> ()
          end)
        info.i_calls)
    (Front.summaries glob.table)

(* C5: a Domain.DLS-derived value stored into shared mutable state. *)
let report_c5 glob =
  List.iter
    (fun info ->
      List.iter
        (fun w ->
          match w.w_class with
          | W_shared id when w.w_value_dls ->
              add glob
                (Front.diag "C5" info.i_file w.w_loc
                   (Printf.sprintf
                      "Domain.DLS-derived value stored into shared state %s: \
                       domain-local data must not escape its domain"
                      id))
          | _ -> ())
        info.i_writes)
    (Front.summaries glob.table)

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)

type result = {
  diagnostics : Front.diagnostic list;
  pool_writes : (string * Location.t * string) list;
}

let analyze (front : Front.t) ~raises =
  let glob =
    {
      table = Front.table ();
      mutexes = module_mutexes front;
      claims = [];
      diags = [];
    }
  in
  summarize glob front;
  let infos = Front.summaries glob.table in
  List.iter seed infos;
  Front.propagate glob.table
    ~edges:(fun info -> List.map (fun c -> (c.c_key, c)) info.i_calls)
    transfer;
  let roots = Front.roots glob.table in
  report_c1 glob (Front.reachable glob.table roots callees);
  report_claims glob;
  report_c2 glob;
  report_c3 glob;
  report_c4 glob raises;
  report_c5 glob;
  let pool_roots = List.filter (fun r -> r.i_pool) roots in
  {
    diagnostics = glob.diags;
    pool_writes =
      List.concat_map
        (fun info ->
          List.filter_map
            (fun w ->
              if w.w_claim = None then Some (info.i_file, w.w_loc, w.w_prim)
              else None)
            info.i_writes)
        (Front.reachable glob.table pool_roots callees);
  }
