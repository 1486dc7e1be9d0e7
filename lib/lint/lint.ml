(* Determinism / domain-safety lint (L1-L5) and the one entry point
   that runs all four lint families. See lint.mli for the rule set.

   L1 reads the effect summaries the race analyzer builds (race.ml):
   its writes to state that is not task-local, and what is reachable
   from a Parallel.map/iter task. Unlike C1 it trusts any well-formed
   [@cts.guarded] claim. L2-L5 are local: one walk per top-level
   definition for L1's malformed-claim check, L2, L3, L4 and the L5
   "holds mutable state" indicator, which type declarations also set. *)

open Parsetree

(* ------------------------------------------------------------------ *)
(* Rule scopes and tables                                              *)

let l2_exempt path =
  Front.has_suffix "lib/util/rng.ml" path
  || Front.has_suffix "lib/bmark/synthetic.ml" path
  || path = "rng.ml" || path = "synthetic.ml"

(* The observability clock (lib/obs/obs_clock.ml) is the single blessed
   wall-clock module: everything else in lib/ must go through
   Obs_clock.now so timing side-effects stay confined to one auditable
   site. *)
let l3_in_scope path =
  Front.has_prefix "lib/" path
  && (not (Front.has_prefix "lib/report/" path))
  && not (Front.has_suffix "lib/obs/obs_clock.ml" path)

let l4_in_scope path =
  List.exists
    (fun dir -> Front.has_prefix dir path)
    [ "lib/cts_core/"; "lib/dme/"; "lib/numerics/"; "lib/qor/" ]

let l5_in_scope path = Front.has_prefix "lib/" path

(* Allocators that make a module stateful for rule L5 (deliberately
   narrower than Front.fresh_allocs: a local [Array.of_list] work array
   is not "module holds mutable state", but any ref cell, table, queue
   or lock is). *)
let l5_allocs =
  [
    "ref"; "Hashtbl.create"; "Queue.create"; "Buffer.create";
    "Stack.create"; "Atomic.make"; "Mutex.create"; "Condition.create";
  ]

let l5_types =
  [
    "Hashtbl.t"; "Queue.t"; "Buffer.t"; "Stack.t"; "Atomic.t"; "Mutex.t";
    "Condition.t"; "ref";
  ]

let wallclock = [ "Unix.gettimeofday"; "Unix.time"; "Sys.time" ]

let float_ops =
  [
    "+."; "-."; "*."; "/."; "**"; "~-."; "sqrt"; "exp"; "log"; "log10";
    "atan"; "atan2"; "cos"; "sin"; "abs_float"; "float_of_int";
    "float_of_string"; "Float.abs"; "Float.max"; "Float.min"; "Float.neg";
    "Float.add"; "Float.sub"; "Float.mul"; "Float.div"; "Float.rem";
    "Float.pow"; "Float.sqrt"; "Float.exp"; "Float.log"; "Float.of_int";
    "Float.of_string"; "Float.round"; "Float.ceil"; "Float.floor";
  ]

let rec is_floatish e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_apply (f, _) -> (
      match Front.apply_head f with
      | Some segs -> List.mem (Front.dotted segs) float_ops
      | None -> false)
  | Pexp_constraint (e', t) -> (
      match t.ptyp_desc with
      | Ptyp_constr ({ txt = Longident.Lident "float"; _ }, _) -> true
      | _ -> is_floatish e')
  | Pexp_ifthenelse (_, a, Some b) -> is_floatish a || is_floatish b
  | _ -> false

(* ------------------------------------------------------------------ *)
(* L1-L4 and the L5 indicator, per implementation                      *)

(* The walk of one definition: [feq] is an enclosing
   [@cts.float_eq_ok]. Returns whether the code mutates state. *)
let check_def add (d : Front.def) =
  let path = d.file.path in
  let mutates = ref false in
  let attrs feq (attrs : attributes) =
    List.fold_left
      (fun feq (a : attribute) ->
        match a.attr_name.Location.txt with
        | "cts.guarded" ->
            (* A "mutex:NAME" payload names the specific lock; the
               race analyzer verifies the name, L1 only the shape. *)
            if
              Option.bind (Front.string_payload a.attr_payload)
                Front.guard_mechanism
              = None
            then
              add
                (Front.diag "L1" path a.attr_loc
                   "[@cts.guarded] must name its mechanism: \
                    \"mutex[:NAME]\", \"atomic\" or \"domain-local\"");
            feq
        | "cts.float_eq_ok" -> true
        | _ -> feq)
      feq attrs
  in
  let rec expr feq e =
    let feq = attrs feq e.pexp_attributes in
    (match e.pexp_desc with
    | Pexp_ident { txt = Ldot (prefix, _) as lid; _ } ->
        let segs = Longident.flatten lid in
        if
          List.exists
            (fun m -> m = "Random" || m = "Rng")
            (Longident.flatten prefix)
          && not (l2_exempt path)
        then
          add
            (Front.diag "L2" path e.pexp_loc
               (Printf.sprintf
                  "%s: randomness outside lib/util/rng.ml and \
                   lib/bmark/synthetic.ml breaks determinism"
                  (String.concat "." segs)));
        let d = Front.dotted segs in
        if List.mem d wallclock && l3_in_scope path then
          add
            (Front.diag "L3" path e.pexp_loc
               (Printf.sprintf
                  "wall-clock call %s in lib/ (allowed only under \
                   lib/report and through Obs_clock.now)"
                  d))
    | Pexp_apply (f, args) -> (
        match Front.apply_head f with
        | Some segs -> (
            let d = Front.dotted segs in
            if List.mem_assoc d Front.write_prims || List.mem d l5_allocs then
              mutates := true;
            match (d, Front.nolabel_args args) with
            | ("=" | "<>"), [ a; b ]
              when l4_in_scope path
                   && (is_floatish a || is_floatish b)
                   && not feq ->
                add
                  (Front.diag "L4" path e.pexp_loc
                     (Printf.sprintf
                        "float equality %s: use an epsilon helper \
                         (Numerics.Float_cmp) or annotate \
                         [@cts.float_eq_ok]"
                        d))
            | _ -> ())
        | None -> ())
    | Pexp_setfield _ | Pexp_setinstvar _ -> mutates := true
    | _ -> ());
    let it =
      {
        Ast_iterator.default_iterator with
        expr = (fun _ e' -> expr feq e');
        value_binding =
          (fun _ vb -> expr (attrs feq vb.pvb_attributes) vb.pvb_expr);
        attributes = (fun _ _ -> ());
        pat = (fun _ _ -> ());
        typ = (fun _ _ -> ());
      }
    in
    Ast_iterator.default_iterator.expr it e
  in
  expr (attrs false d.attrs) d.expr;
  !mutates

let type_decl_mutable (td : type_declaration) =
  let found =
    ref
      (match td.ptype_kind with
      | Ptype_record lds ->
          List.exists (fun ld -> ld.pld_mutable = Asttypes.Mutable) lds
      | _ -> false)
  in
  let it =
    {
      Ast_iterator.default_iterator with
      typ =
        (fun it t ->
          (match t.ptyp_desc with
          | Ptyp_constr ({ txt; _ }, _) ->
              if List.mem (Front.dotted (Longident.flatten txt)) l5_types then
                found := true
          | _ -> ());
          Ast_iterator.default_iterator.typ it t);
    }
  in
  it.type_declaration it td;
  !found

let l1_message prim =
  Printf.sprintf
    "%s writes shared state reachable from a Parallel pool task; annotate \
     the enclosing definition with [@cts.guarded \
     \"mutex\"|\"atomic\"|\"domain-local\"] or keep the target \
     task-local"
    prim

let check (front : Front.t) (race : Race.result) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let stateful = Hashtbl.create 64 in
  List.iter
    (fun (d : Front.def) ->
      if check_def add d then Hashtbl.replace stateful d.file.path ())
    front.defs;
  List.iter
    (fun ((file : Front.file), str) ->
      List.iter
        (fun item ->
          match item.pstr_desc with
          | Pstr_type (_, tds) when List.exists type_decl_mutable tds ->
              Hashtbl.replace stateful file.path ()
          | _ -> ())
        str)
    (Front.implementations front);
  (* L5: a stateful lib/ module's interface states its domain-safety. *)
  List.iter
    (fun (mli : Front.file) ->
      let ml = Filename.remove_extension mli.path ^ ".ml" in
      if
        Filename.check_suffix mli.path ".mli"
        && Hashtbl.mem stateful ml && l5_in_scope ml
        && not (Front.contains mli.text "Domain-safety:")
      then
        add
          {
            Front.rule = "L5";
            file = mli.path;
            line = 1;
            col = 0;
            message =
              Printf.sprintf
                "%s holds mutable state but its .mli has no \
                 'Domain-safety:' doc line"
                (Front.module_name_of ml);
          })
    front.files;
  List.map
    (fun (file, loc, prim) -> Front.diag "L1" file loc (l1_message prim))
    race.pool_writes
  @ !diags

(* ------------------------------------------------------------------ *)
(* The entry point                                                     *)

type result = {
  diagnostics : Front.diagnostic list;
  raises : ((string * string) * string list) list;
}

let run sources =
  let front = Front.parse sources in
  let exc = Exc.analyze front in
  let race = Race.analyze front ~raises:exc.raises in
  {
    diagnostics =
      Front.sort_diagnostics
        (front.syntax @ check front race @ Units.check front
       @ race.diagnostics @ exc.diagnostics);
    raises = exc.raises;
  }

let run_paths paths = run (List.map (fun p -> (p, Front.read_file p)) paths)
