(* Physical-units static checker over the CTS float domain.
   See units.mli for the rule set (U1-U4) and the unit lattice.

   Everything in this pipeline is dimensioned float arithmetic — delay
   surfaces map (slew, length) to (delay, slew), merge-routing trades
   micrometres against picoseconds — but in the source every quantity
   is a bare [float]. This pass runs a flow-insensitive,
   interprocedural dimension inference over the parsetree (no typer):

   - dimensions are integer exponent vectors over the base axes
     (time, length, capacitance); resistance is time/capacitance, so
     [ohm *. ff] composes to [ps] exactly as Elmore arithmetic does;
   - `.mli` declarations seed the global environment: a
     [[@cts.unit "ps"]] attribute on a [float] (anywhere in a [val]
     type or a record field) assigns it a unit, and a
     naming-convention fallback covers self-describing labels
     ([input_slew], [load_cap], [len_left], [*_ps], [*_um], ...);
   - `.ml` bodies propagate units through let-bindings, function
     application (labelled and positional arguments checked against
     the callee's scheme), [+.]/[-.]/[min]/[max] (equal units),
     [*.]/[/.] (exponent vectors add/subtract), [sqrt] (halves even
     vectors), comparisons and [Float_cmp] calls (equal units), and
     record fields (a global field-name -> unit table; fields whose
     declarations disagree across the repo degrade to unknown).

   The analysis is deliberately conservative: a diagnostic needs
   {e both} sides of an operation to have a known, different
   dimension; unknown propagates silently. That keeps the repository
   lintable to zero while still catching the ps<->um argument swap
   class of bug. *)

open Parsetree

(* ------------------------------------------------------------------ *)
(* The unit domain                                                     *)

type dim = { dt : int; dl : int; dc : int }
(* Exponents over time (ps), length (um), capacitance (ff).
   Resistance is derived: ohm = ps/ff. *)

type uinfo = Known of dim | Unknown

let d_ps = { dt = 1; dl = 0; dc = 0 }
let d_um = { dt = 0; dl = 1; dc = 0 }
let d_ff = { dt = 0; dl = 0; dc = 1 }
let d_ohm = { dt = 1; dl = 0; dc = -1 }
let d_ps_per_um = { dt = 1; dl = -1; dc = 0 }
let d_um2 = { dt = 0; dl = 2; dc = 0 }
let d_one = { dt = 0; dl = 0; dc = 0 }

let unit_names =
  [
    ("ps", d_ps); ("um", d_um); ("ff", d_ff); ("ohm", d_ohm);
    ("ps_per_um", d_ps_per_um); ("um2", d_um2); ("dimensionless", d_one);
  ]

let unit_name_list = String.concat ", " (List.map fst unit_names)

let dim_of_name n = List.assoc_opt n unit_names

(* Printable aliases for derived dims the naming convention produces
   but which are not annotation units. *)
let print_names =
  unit_names
  @ [
      ("ohm/um", { dt = 1; dl = -1; dc = -1 });
      ("ff/um", { dt = 0; dl = -1; dc = 1 });
      ("ps^2", { dt = 2; dl = 0; dc = 0 });
    ]

let dim_name d =
  match List.find_opt (fun (_, d') -> d' = d) print_names with
  | Some (n, _) -> n
  | None ->
      let part base e =
        if e = 0 then []
        else if e = 1 then [ base ]
        else [ Printf.sprintf "%s^%d" base e ]
      in
      String.concat "*" (part "ps" d.dt @ part "um" d.dl @ part "ff" d.dc)

let mul_dim a b = { dt = a.dt + b.dt; dl = a.dl + b.dl; dc = a.dc + b.dc }
let div_dim a b = { dt = a.dt - b.dt; dl = a.dl - b.dl; dc = a.dc - b.dc }

let sqrt_dim d =
  if d.dt mod 2 = 0 && d.dl mod 2 = 0 && d.dc mod 2 = 0 then
    Known { dt = d.dt / 2; dl = d.dl / 2; dc = d.dc / 2 }
  else Unknown

(* Join for control-flow merges: agreement or nothing. For arithmetic
   operands already checked by U1 we keep the first known side. *)
let join a b =
  match (a, b) with
  | Unknown, x | x, Unknown -> x
  | Known da, Known db -> if da = db then a else Unknown

let first_known a b = match a with Known _ -> a | Unknown -> b

(* ------------------------------------------------------------------ *)
(* Naming-convention fallback                                          *)

(* Naming-convention rules, most specific first:

   - [unit_res] / [unit_cap] are the per-unit-length tech constants
     (ohm/um, ff/um) — the derived dims that make Elmore products
     compose ([unit_cap *. len] is ff, [unit_res *. len *. cap] ps);
   - a [_sq] suffix squares the dim of the stem ([slew_sq] is ps^2,
     the RSS accumulator idiom);
   - explicit [_ps]/[_um]/[_ff]/[_ohm] suffixes;
   - word classes — if words from more than one class appear the name
     is ambiguous ([snake_length_for_delay] maps a delay to a length)
     and inference must decide instead; "capacity" is excluded from
     the cap class because merge-routing's [balance_capacity] is a
     delay budget. *)
let rec dim_of_ident name =
  let n = String.lowercase_ascii name in
  if Front.contains n "unit_res" then Some { dt = 1; dl = -1; dc = -1 }
  else if Front.contains n "unit_cap" then Some { dt = 0; dl = -1; dc = 1 }
  else if Front.has_suffix "_sq" n then
    Option.map
      (fun d -> { dt = 2 * d.dt; dl = 2 * d.dl; dc = 2 * d.dc })
      (dim_of_ident (String.sub n 0 (String.length n - 3)))
  else if Front.has_suffix "_ps" n then Some d_ps
  else if Front.has_suffix "_um" n then Some d_um
  else if Front.has_suffix "_ff" n then Some d_ff
  else if Front.has_suffix "_ohm" n then Some d_ohm
  else
    let time =
      List.exists (Front.contains n)
        [ "slew"; "delay"; "latenc"; "skew"; "offset" ]
    in
    let length =
      List.exists (Front.contains n) [ "len"; "dist"; "snak" ]
    in
    let cap = Front.contains n "cap" && not (Front.contains n "capacity") in
    let res = Front.has_suffix "_res" n || Front.contains n "resist" in
    match (time, length, cap, res) with
    | true, false, false, false -> Some d_ps
    | false, true, false, false -> Some d_um
    | false, false, true, false -> Some d_ff
    | false, false, false, true -> Some d_ohm
    | _ -> None

let uinfo_of_ident name =
  match dim_of_ident name with Some d -> Known d | None -> Unknown

(* ------------------------------------------------------------------ *)
(* Value schemes and the global environment                            *)

(* A top-level value's unit signature: parameters in declaration order
   (label, unit) with [""] for positional, and the result unit. Plain
   (non-function) values have no parameters. *)
type scheme = { sparams : (string * uinfo) list; sresult : uinfo }

let const_scheme u = { sparams = []; sresult = u }

type gctx = {
  vals : (string * string, scheme) Hashtbl.t;  (* (Module, name) *)
  mli_vals : (string * string, unit) Hashtbl.t;  (* mli-seeded keys *)
  fields : (string, uinfo) Hashtbl.t;  (* record field name -> unit *)
  mutable diags : Front.diagnostic list;
  mutable emit : bool;  (* false during the scheme-collection passes *)
}

type fctx = {
  file : Front.file;
  f_mod : string;  (* the file's module, or a nested module's name *)
  mutable f_opens : string list;  (* later opens first *)
}

let diag g fc rule loc message =
  if g.emit then g.diags <- Front.diag rule fc.file.path loc message :: g.diags

(* ------------------------------------------------------------------ *)
(* Rule scopes                                                         *)

(* U3: the dimensioned core whose public float signatures must carry
   units. *)
let u3_scope path =
  Front.has_prefix "lib/delaylib/" path
  || Front.has_prefix "lib/cts_core/" path
  || Front.has_prefix "lib/dme/" path
  || Front.has_prefix "lib/ctree/" path

(* U1/U2/U4 check every analyzed source under lib/ and bin/. *)
let u12_scope path =
  Front.has_prefix "lib/" path || Front.has_prefix "bin/" path
let u4_scope = u12_scope

(* ------------------------------------------------------------------ *)
(* Attributes                                                          *)

(* [@cts.unit "..."] on a core type, expression, pattern or field. *)
type attr_unit = A_none | A_unit of dim | A_bad of string * Location.t

let unit_attr (attrs : attributes) =
  List.fold_left
    (fun acc (a : attribute) ->
      match a.attr_name.Location.txt with
      | "cts.unit" -> (
          match Front.string_payload a.attr_payload with
          | Some s -> (
              match dim_of_name s with
              | Some d -> A_unit d
              | None -> A_bad (s, a.attr_loc))
          | None -> A_bad ("", a.attr_loc))
      | _ -> acc)
    A_none attrs

let report_bad_attr g fc = function
  | A_bad (s, loc) ->
      diag g fc "U3" loc
        (Printf.sprintf
           "unknown unit %S in [@cts.unit] (one of: %s)" s unit_name_list)
  | A_none | A_unit _ -> ()

let has_unit_ok (attrs : attributes) =
  List.exists
    (fun (a : attribute) -> a.attr_name.Location.txt = "cts.unit_ok")
    attrs

(* ------------------------------------------------------------------ *)
(* Core-type walks (mli seeding and U3)                                *)

let label_name = function
  | Asttypes.Nolabel -> ""
  | Asttypes.Labelled s | Asttypes.Optional s -> s

let is_float_constr ty =
  match ty.ptyp_desc with
  | Ptyp_constr ({ txt = Longident.Lident "float"; _ }, []) -> true
  | _ -> false

(* Unit of one core type position: attribute first, then the naming
   fallback on the closest enclosing name (argument label, field name
   or val name) — but only for a type that is literally [float]. *)
let rec unit_of_core g fc ~name ty =
  match unit_attr ty.ptyp_attributes with
  | A_unit d -> Known d
  | A_bad _ as bad ->
      report_bad_attr g fc bad;
      Unknown
  | A_none -> (
      match ty.ptyp_desc with
      | Ptyp_alias (ty', _) | Ptyp_poly (_, ty') ->
          unit_of_core g fc ~name ty'
      | _ when is_float_constr ty -> uinfo_of_ident name
      | _ -> Unknown)

(* U3 walk: visit every bare [float] in a public signature type and
   demand it resolve to a unit. [name] is the nearest enclosing
   name. *)
let rec scan_public_floats g fc ~name ty =
  match unit_attr ty.ptyp_attributes with
  | A_unit _ -> ()  (* annotated: covers this node and below *)
  | A_bad _ as bad -> report_bad_attr g fc bad
  | A_none -> (
      match ty.ptyp_desc with
      | Ptyp_constr ({ txt = Longident.Lident "float"; _ }, []) ->
          if dim_of_ident name = None then
            let where =
              if name = "" then "public positional float"
              else Printf.sprintf "public float in %s" name
            in
            diag g fc "U3" ty.ptyp_loc
              (Printf.sprintf
                 "%s has no unit: annotate (float[@cts.unit \"...\"]) \
                  with one of: %s"
                 where unit_name_list)
      | Ptyp_arrow (lbl, a, b) ->
          (* A positional parameter has no name of its own; the val
             name describes the result, never an argument. *)
          scan_public_floats g fc ~name:(label_name lbl) a;
          scan_public_floats g fc ~name b
      | Ptyp_tuple tys ->
          List.iter (scan_public_floats g fc ~name) tys
      | Ptyp_constr (_, args) ->
          List.iter (scan_public_floats g fc ~name) args
      | Ptyp_alias (ty', _) | Ptyp_poly (_, ty') ->
          scan_public_floats g fc ~name ty'
      | _ -> ())

(* Scheme of a val declaration: flatten the arrow spine; parameters
   keep their label and unit, the result its unit. *)
let scheme_of_val g fc name ty =
  let rec flatten acc ty =
    match ty.ptyp_desc with
    | Ptyp_arrow (lbl, a, b) ->
        let l = label_name lbl in
        (* Positional parameters do not inherit the val name — it
           names the result ([side_delay]'s float argument is a
           length). *)
        flatten ((l, unit_of_core g fc ~name:l a) :: acc) b
    | Ptyp_alias (ty', _) | Ptyp_poly (_, ty') -> flatten acc ty'
    | _ -> (List.rev acc, ty)
  in
  let params, rty = flatten [] ty in
  { sparams = params; sresult = unit_of_core g fc ~name rty }

(* Record declarations feed the global field table (used for
   [e.field], record construction and mutable-field assignment).
   Fields whose declarations disagree across the repository degrade to
   Unknown — the table is keyed by field name alone, since without the
   typer a field access cannot be resolved to its declaring type. *)
let note_field g name u =
  match u with
  | Unknown -> if not (Hashtbl.mem g.fields name) then ()
  | Known _ -> (
      match Hashtbl.find_opt g.fields name with
      | None -> Hashtbl.replace g.fields name u
      | Some (Known _ as u') ->
          if u' <> u then Hashtbl.replace g.fields name Unknown
      | Some Unknown -> ())

let do_label_decls g fc ~public lds =
  List.iter
    (fun (ld : label_declaration) ->
      let name = ld.pld_name.Location.txt in
      let attr =
        match unit_attr ld.pld_attributes with
        | A_none -> unit_attr ld.pld_type.ptyp_attributes
        | a -> a
      in
      (match attr with A_bad _ as bad -> report_bad_attr g fc bad | _ -> ());
      let u =
        match attr with
        | A_unit d -> Known d
        | _ ->
            if is_float_constr ld.pld_type then uinfo_of_ident name
            else Unknown
      in
      if is_float_constr ld.pld_type || attr <> A_none then
        note_field g name u;
      if public && u3_scope fc.file.path then
        match attr with
        | A_unit _ -> ()
        | _ -> scan_public_floats g fc ~name ld.pld_type)
    lds

let do_type_decl g fc ~public (td : type_declaration) =
  match td.ptype_kind with
  | Ptype_record lds -> do_label_decls g fc ~public lds
  | Ptype_variant cds ->
      List.iter
        (fun (cd : constructor_declaration) ->
          match cd.pcd_args with
          | Pcstr_record lds -> do_label_decls g fc ~public lds
          | Pcstr_tuple tys ->
              if public && u3_scope fc.file.path then
                List.iter
                  (scan_public_floats g fc ~name:cd.pcd_name.Location.txt)
                  tys)
        cds
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Interface pass                                                      *)

let rec do_signature g fc (sg : signature) =
  List.iter
    (fun item ->
      match item.psig_desc with
      | Psig_value vd ->
          let name = vd.pval_name.Location.txt in
          let sch = scheme_of_val g fc name vd.pval_type in
          Hashtbl.replace g.vals (fc.f_mod, name) sch;
          Hashtbl.replace g.mli_vals (fc.f_mod, name) ();
          if u3_scope fc.file.path then
            scan_public_floats g fc ~name vd.pval_type
      | Psig_type (_, tds) ->
          List.iter (do_type_decl g fc ~public:true) tds
      | Psig_module
          {
            pmd_name = { txt = Some sub; _ };
            pmd_type = { pmty_desc = Pmty_signature sub_sg; _ };
            _;
          } ->
          (* Nested signature: values live under the submodule's own
             name ([Obs.Clock] style access). *)
          do_signature g { fc with f_mod = sub } sub_sg
      | _ -> ())
    sg

(* ------------------------------------------------------------------ *)
(* Expression analysis                                                 *)

module Env = Map.Make (String)
(* Local environment: name -> scheme. *)

(* Look a (possibly qualified) identifier up: local environment, the
   current module's top levels, then opened modules. *)
let lookup_scheme g fc env (lid : Longident.t) =
  match lid with
  | Lident x -> (
      match Env.find_opt x env with
      | Some sch -> Some sch
      | None -> (
          match Hashtbl.find_opt g.vals (fc.f_mod, x) with
          | Some sch -> Some sch
          | None ->
              List.find_map
                (fun m -> Hashtbl.find_opt g.vals (m, x))
                fc.f_opens))
  | _ -> Option.bind (Front.qualified fc.file lid) (Hashtbl.find_opt g.vals)

let field_unit g (lid : Longident.t) =
  match List.rev (Longident.flatten lid) with
  | f :: _ -> (
      match Hashtbl.find_opt g.fields f with Some u -> u | None -> Unknown)
  | [] -> Unknown

(* Literal detection for U4 (peeling negation and constraints);
   returns the source text of the constant. *)
let rec literal_const e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float (s, _)) -> Some s
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Longident.Lident "~-."; _ }; _ },
        [ (Asttypes.Nolabel, e') ] ) ->
      Option.map (fun s -> "-" ^ s) (literal_const e')
  | Pexp_constraint (e', _) -> literal_const e'
  | _ -> None

let literal_is_zero s =
  match float_of_string_opt (String.concat "" (String.split_on_char '_' s))
  with
  | Some v -> v = 0.0 [@cts.float_eq_ok]
  | None -> false

(* Operator tables. *)
let add_ops = [ "+."; "-."; "Float.add"; "Float.sub" ]
let minmax_ops = [ "min"; "max"; "Stdlib.min"; "Stdlib.max"; "Float.min"; "Float.max" ]
let mul_ops = [ "*."; "Float.mul" ]
let div_ops = [ "/."; "Float.div" ]
let sqrt_ops = [ "sqrt"; "Float.sqrt" ]

let passthrough_ops =
  [
    "~-."; "~+."; "abs_float"; "Float.abs"; "Float.neg"; "Float.round";
    "Float.ceil"; "Float.floor"; "ceil"; "floor"; "Stdlib.abs_float";
  ]

let cmp_ops =
  [ "<"; ">"; "<="; ">="; "="; "<>"; "compare"; "Float.equal"; "Float.compare" ]

let float_cmp_fns = [ "approx_eq"; "definitely_lt"; "cmp" ]

(* Names of parameters bound by a pattern, with the unit each one gets
   (constraint attribute first, then naming convention). *)
let rec pattern_bindings p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> [ (txt, uinfo_of_ident txt) ]
  | Ppat_alias (p', { txt; _ }) ->
      (txt, uinfo_of_ident txt) :: pattern_bindings p'
  | Ppat_constraint (p', ty) -> (
      let inner = pattern_bindings p' in
      match unit_attr ty.ptyp_attributes with
      | A_unit d -> List.map (fun (n, _) -> (n, Known d)) inner
      | _ -> inner)
  | Ppat_tuple ps -> List.concat_map pattern_bindings ps
  | Ppat_construct (_, Some (_, p')) | Ppat_variant (_, Some p') ->
      pattern_bindings p'
  | Ppat_record (fields, _) ->
      List.concat_map (fun (_, p') -> pattern_bindings p') fields
  | Ppat_or (a, b) -> pattern_bindings a @ pattern_bindings b
  | Ppat_array ps -> List.concat_map pattern_bindings ps
  | Ppat_open (_, p') | Ppat_lazy p' | Ppat_exception p' ->
      pattern_bindings p'
  | _ -> []

let bind_pattern env p =
  List.fold_left
    (fun e (n, u) -> Env.add n (const_scheme u) e)
    env (pattern_bindings p)

(* The single-variable unit of a function parameter pattern, for
   scheme construction. *)
let pattern_param_unit p =
  match pattern_bindings p with [ (_, u) ] -> u | _ -> Unknown

type ectx = { g : gctx; fc : fctx; u4ok : bool }

let guard_of_attrs ctx (attrs : attributes) =
  if has_unit_ok attrs then { ctx with u4ok = true } else ctx

(* Peel the fun spine of a definition body. *)
let rec peel_funs acc e =
  match e.pexp_desc with
  | Pexp_fun (lbl, _default, pat, body) ->
      peel_funs ((label_name lbl, pat) :: acc) body
  | Pexp_newtype (_, e') -> peel_funs acc e'
  | _ -> (List.rev acc, e)

let rec infer ctx env e : uinfo =
  let ctx = guard_of_attrs ctx e.pexp_attributes in
  (match unit_attr e.pexp_attributes with
  | A_bad _ as bad -> report_bad_attr ctx.g ctx.fc bad
  | _ -> ());
  let u = infer_desc ctx env e in
  match unit_attr e.pexp_attributes with
  | A_unit d -> Known d  (* explicit expression annotation wins *)
  | _ -> u

and infer_desc ctx env e =
  let g = ctx.g and fc = ctx.fc in
  match e.pexp_desc with
  | Pexp_constant _ -> Unknown
  | Pexp_ident { txt; _ } -> (
      match lookup_scheme g fc env txt with
      | Some { sparams = []; sresult } -> sresult
      | Some _ | None -> Unknown)
  | Pexp_field (e', lid) ->
      ignore (infer ctx env e');
      field_unit g lid.Location.txt
  | Pexp_setfield (tgt, lid, v) ->
      ignore (infer ctx env tgt);
      let uv = infer ctx env v in
      let uf = field_unit g lid.Location.txt in
      (match (uf, uv) with
      | Known df, Known dv when df <> dv && u12_scope fc.file.path ->
          diag g fc "U1" e.pexp_loc
            (Printf.sprintf
               "unit mismatch: record field %s holds %s but gets %s"
               (Front.dotted (Longident.flatten lid.Location.txt))
               (dim_name df) (dim_name dv))
      | _ -> ());
      Unknown
  | Pexp_record (members, base) ->
      Option.iter (fun b -> ignore (infer ctx env b)) base;
      List.iter
        (fun ((lid : Longident.t Location.loc), v) ->
          let uv = infer ctx env v in
          let uf = field_unit g lid.Location.txt in
          match (uf, uv) with
          | Known df, Known dv when df <> dv && u12_scope fc.file.path ->
              diag g fc "U1" v.pexp_loc
                (Printf.sprintf
                   "unit mismatch: record field %s holds %s but gets %s"
                   (Front.dotted (Longident.flatten lid.Location.txt))
                   (dim_name df) (dim_name dv))
          | _ -> ())
        members;
      Unknown
  | Pexp_apply (f, args) -> infer_apply ctx env e f args
  | Pexp_let (rf, vbs, body) ->
      let env' = bind_value_bindings ctx env rf vbs in
      infer ctx env' body
  | Pexp_fun (_, default, pat, body) ->
      Option.iter (fun d -> ignore (infer ctx env d)) default;
      ignore (infer ctx (bind_pattern env pat) body);
      Unknown
  | Pexp_function cases ->
      infer_cases ctx env cases
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
      ignore (infer ctx env scrut);
      infer_cases ctx env cases
  | Pexp_ifthenelse (c, a, b) -> (
      ignore (infer ctx env c);
      let ua = infer ctx env a in
      match b with
      | Some b -> join ua (infer ctx env b)
      | None -> Unknown)
  | Pexp_sequence (a, b) ->
      ignore (infer ctx env a);
      infer ctx env b
  | Pexp_constraint (e', ty) -> (
      match unit_attr ty.ptyp_attributes with
      | A_unit d ->
          ignore (infer ctx env e');
          Known d
      | A_bad _ as bad ->
          report_bad_attr g fc bad;
          infer ctx env e'
      | A_none -> infer ctx env e')
  | Pexp_open
      ( { popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ },
        body ) ->
      let saved = fc.f_opens in
      (match List.rev (Longident.flatten txt) with
      | last :: _ -> fc.f_opens <- last :: fc.f_opens
      | [] -> ());
      let u = infer ctx env body in
      fc.f_opens <- saved;
      u
  | Pexp_for (pat, lo, hi, _, body) ->
      ignore (infer ctx env lo);
      ignore (infer ctx env hi);
      ignore (infer ctx (bind_pattern env pat) body);
      Unknown
  | Pexp_while (c, body) ->
      ignore (infer ctx env c);
      ignore (infer ctx env body);
      Unknown
  | _ ->
      (* Generic fallback: visit children with the same environment. *)
      let it =
        {
          Ast_iterator.default_iterator with
          expr = (fun _ e' -> ignore (infer ctx env e'));
          case =
            (fun _ c ->
              let env = bind_pattern env c.pc_lhs in
              Option.iter (fun gd -> ignore (infer ctx env gd)) c.pc_guard;
              ignore (infer ctx env c.pc_rhs));
          attributes = (fun _ _ -> ());
          pat = (fun _ _ -> ());
          typ = (fun _ _ -> ());
        }
      in
      Ast_iterator.default_iterator.expr it e;
      Unknown

and infer_cases ctx env cases =
  List.fold_left
    (fun acc c ->
      let env = bind_pattern env c.pc_lhs in
      Option.iter (fun gd -> ignore (infer ctx env gd)) c.pc_guard;
      join acc (infer ctx env c.pc_rhs))
    Unknown cases

and bind_value_bindings ctx env rf vbs =
  let env' =
    List.fold_left
      (fun acc vb ->
        match vb.pvb_pat.ppat_desc with
        | Ppat_var { txt; _ } ->
            Env.add txt (scheme_placeholder ctx env vb) acc
        | _ -> bind_pattern acc vb.pvb_pat)
      env vbs
  in
  let walk_env = if rf = Asttypes.Recursive then env' else env in
  (* Re-infer each binding against the (possibly recursive) scope so
     diagnostics inside bodies are emitted exactly once. *)
  List.iter
    (fun vb ->
      let ctx = guard_of_attrs ctx vb.pvb_attributes in
      match vb.pvb_pat.ppat_desc with
      | Ppat_var _ -> ()  (* body analyzed by scheme_of_binding below *)
      | _ -> ignore (infer ctx walk_env vb.pvb_expr))
    vbs;
  List.iter
    (fun vb ->
      match vb.pvb_pat.ppat_desc with
      | Ppat_var { txt; _ } ->
          let ctx = guard_of_attrs ctx vb.pvb_attributes in
          let sch = scheme_of_binding ctx walk_env vb.pvb_expr ~name:txt in
          ignore sch
      | _ -> ())
    vbs;
  env'

(* Scheme of a local let binding, without emitting diagnostics (used
   to seed the environment before the real walk). *)
and scheme_placeholder ctx env vb =
  let name =
    match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt; _ } -> txt
    | _ -> ""
  in
  let saved = ctx.g.emit in
  ctx.g.emit <- false;
  let sch = scheme_of_binding ctx env vb.pvb_expr ~name in
  ctx.g.emit <- saved;
  sch

(* Analyze a definition body [e] bound to [name]: peel its parameters
   (units from constraint attributes or naming), walk the body in the
   extended environment, and build the value's scheme. The naming
   fallback on [name] only applies when inference yields Unknown. *)
and scheme_of_binding ctx env e ~name =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      (* Alias binding: inherit the scheme. *)
      match lookup_scheme ctx.g ctx.fc env txt with
      | Some sch -> sch
      | None -> const_scheme (uinfo_of_ident name))
  | Pexp_fun _ | Pexp_newtype _ ->
      let params, body = peel_funs [] e in
      let penv, sparams =
        List.fold_left
          (fun (penv, acc) (lbl, pat) ->
            let u = pattern_param_unit pat in
            (bind_pattern penv pat, (lbl, u) :: acc))
          (env, []) params
      in
      let r = infer ctx penv body in
      { sparams = List.rev sparams; sresult = r }
  | _ ->
      let u = infer ctx env e in
      const_scheme (match u with Unknown -> uinfo_of_ident name | _ -> u)

and infer_apply ctx env e f args =
  let g = ctx.g and fc = ctx.fc in
  let pos_args = Front.nolabel_args args in
  let arith_mismatch op da db loc =
    if u12_scope fc.file.path then
      diag g fc "U1" loc
        (Printf.sprintf "unit mismatch: (%s) combines %s with %s" op
           (dim_name da) (dim_name db))
  in
  let cmp_mismatch op da db loc =
    if u12_scope fc.file.path then
      diag g fc "U2" loc
        (Printf.sprintf "unit mismatch: %s compares %s with %s" op
           (dim_name da) (dim_name db))
  in
  let u4_check op ua ub a b =
    if u4_scope fc.file.path && not ctx.u4ok then
      let check u lit_e other_u =
        match (u, literal_const lit_e, other_u) with
        | Unknown, Some s, Known d
          when d <> d_one && not (literal_is_zero s) ->
            diag g fc "U4" e.pexp_loc
              (Printf.sprintf
                 "suspicious literal: (%s) combines a %s value with bare \
                  constant %s; annotate [@cts.unit_ok] if the constant is \
                  in %s"
                 op (dim_name d) s (dim_name d))
        | _ -> ()
      in
      check ua a ub;
      check ub b ua
  in
  match Front.apply_head f with
  | Some segs -> (
      let d = Front.dotted segs in
      match (d, pos_args) with
      | ("@@", [ fn; arg ]) -> infer_apply ctx env e fn [ (Asttypes.Nolabel, arg) ]
      | ("|>", [ arg; fn ]) -> infer_apply ctx env e fn [ (Asttypes.Nolabel, arg) ]
      | (op, [ a; b ]) when List.mem op add_ops ->
          let ua = infer ctx env a and ub = infer ctx env b in
          (match (ua, ub) with
          | Known da, Known db when da <> db ->
              arith_mismatch op da db e.pexp_loc
          | _ -> ());
          u4_check op ua ub a b;
          first_known ua ub
      | (op, [ a; b ]) when List.mem op minmax_ops ->
          let ua = infer ctx env a and ub = infer ctx env b in
          (match (ua, ub) with
          | Known da, Known db when da <> db ->
              arith_mismatch op da db e.pexp_loc
          | _ -> ());
          first_known ua ub
      | (op, [ a; b ]) when List.mem op mul_ops ->
          let ua = infer ctx env a and ub = infer ctx env b in
          (match (ua, ub) with
          | Known da, Known db -> Known (mul_dim da db)
          | _ -> Unknown)
      | (op, [ a; b ]) when List.mem op div_ops ->
          let ua = infer ctx env a and ub = infer ctx env b in
          (match (ua, ub) with
          | Known da, Known db -> Known (div_dim da db)
          | _ -> Unknown)
      | (op, [ a ]) when List.mem op passthrough_ops -> infer ctx env a
      | (op, [ a ]) when List.mem op sqrt_ops -> (
          match infer ctx env a with
          | Known da -> sqrt_dim da
          | Unknown -> Unknown)
      | (op, [ a; b ]) when List.mem op cmp_ops ->
          let ua = infer ctx env a and ub = infer ctx env b in
          (match (ua, ub) with
          | Known da, Known db when da <> db ->
              cmp_mismatch (Printf.sprintf "(%s)" op) da db e.pexp_loc
          | _ -> ());
          Unknown
      | _ -> (
          (* Float_cmp helpers: both positional floats must agree. *)
          let is_float_cmp =
            match List.rev segs with
            | fn :: m :: _ ->
                Front.resolve_alias fc.file m = "Float_cmp"
                && List.mem fn float_cmp_fns
            | _ -> false
          in
          if is_float_cmp then begin
            List.iter
              (fun (lbl, a) ->
                match lbl with
                | Asttypes.Nolabel -> ()
                | _ -> ignore (infer ctx env a))
              args;
            match pos_args with
            | [ a; b ] ->
                let ua = infer ctx env a and ub = infer ctx env b in
                (match (ua, ub) with
                | Known da, Known db when da <> db ->
                    cmp_mismatch d da db e.pexp_loc
                | _ -> ());
                Unknown
            | _ ->
                List.iter (fun a -> ignore (infer ctx env a)) pos_args;
                Unknown
          end
          else
            generic_apply ctx env f args)
      )
  | None -> generic_apply ctx env f args

(* Application against the callee's scheme: labelled arguments match
   the parameter with the same label, positional arguments consume
   unconsumed positional parameters in order. Units are checked where
   both sides are known; the result unit is the scheme's when the
   parameter list is (at least) fully consumed. *)
and generic_apply ctx env f args =
  let g = ctx.g and fc = ctx.fc in
  ignore (infer ctx env f);
  let scheme =
    match f.pexp_desc with
    | Pexp_ident { txt; _ } -> lookup_scheme g fc env txt
    | _ -> None
  in
  let callee =
    match Front.apply_head f with
    | Some segs -> Front.dotted segs
    | None -> "<fun>"
  in
  match scheme with
  | None ->
      List.iter (fun (_, a) -> ignore (infer ctx env a)) args;
      Unknown
  | Some { sparams; sresult } ->
      let consumed = Array.make (List.length sparams) false in
      let params = Array.of_list sparams in
      let take_labelled l =
        let rec go i =
          if i >= Array.length params then None
          else if (not consumed.(i)) && fst params.(i) = l then begin
            consumed.(i) <- true;
            Some (snd params.(i))
          end
          else go (i + 1)
        in
        go 0
      in
      let npos = ref 0 in
      List.iter
        (fun (lbl, a) ->
          let ua = infer ctx env a in
          let param =
            match lbl with
            | Asttypes.Nolabel ->
                incr npos;
                take_labelled ""
            | Asttypes.Labelled l | Asttypes.Optional l -> take_labelled l
          in
          match (param, ua) with
          | Some (Known dp), Known da when dp <> da && u12_scope fc.file.path
            ->
              let argname =
                match lbl with
                | Asttypes.Nolabel -> Printf.sprintf "argument %d" !npos
                | Asttypes.Labelled l | Asttypes.Optional l ->
                    Printf.sprintf "argument ~%s" l
              in
              diag g fc "U1" a.pexp_loc
                (Printf.sprintf
                   "unit mismatch: %s of %s expects %s but gets %s" argname
                   callee (dim_name dp) (dim_name da))
          | _ -> ())
        args;
      if Array.for_all (fun c -> c) consumed then sresult else Unknown

(* ------------------------------------------------------------------ *)
(* Structure pass                                                      *)

let scheme_key_free g key = not (Hashtbl.mem g.mli_vals key)

(* Parameter environment for a top-level definition that has an mli
   scheme: zip the peeled parameters with the declared units (labelled
   parameters match by label, positional in order); constraint
   attributes on the pattern win, naming fills the rest. *)
let env_of_mli_params (sch : scheme) params =
  let remaining = ref sch.sparams in
  let take l =
    let rec go acc = function
      | [] -> (None, List.rev acc)
      | (l', u) :: tl when l' = l -> (Some u, List.rev_append acc tl)
      | p :: tl -> go (p :: acc) tl
    in
    let u, rest = go [] !remaining in
    remaining := rest;
    u
  in
  List.fold_left
    (fun env (lbl, pat) ->
      let declared = take lbl in
      match (pattern_bindings pat, declared) with
      | [ (n, Unknown) ], Some (Known _ as u) ->
          Env.add n (const_scheme u) env
      | bs, _ ->
          List.fold_left
            (fun e (n, u) -> Env.add n (const_scheme u) e)
            env bs)
    Env.empty params

let do_top_binding g fc vb =
  match vb.pvb_pat.ppat_desc with
  | Ppat_var { txt = name; _ } -> (
      let ctx = { g; fc; u4ok = has_unit_ok vb.pvb_attributes } in
      let key = (fc.f_mod, name) in
      match Hashtbl.find_opt g.vals key with
      | Some mli_sch when not (scheme_key_free g key) ->
          (* mli-declared: parameters are authoritative; walk the body
             with them bound and refine an Unknown declared result. *)
          let params, body = peel_funs [] vb.pvb_expr in
          let env = env_of_mli_params mli_sch params in
          let r = infer ctx env body in
          if mli_sch.sresult = Unknown && r <> Unknown then
            Hashtbl.replace g.vals key { mli_sch with sresult = r }
      | _ ->
          let sch = scheme_of_binding ctx Env.empty vb.pvb_expr ~name in
          Hashtbl.replace g.vals key sch)
  | _ ->
      let ctx = { g; fc; u4ok = has_unit_ok vb.pvb_attributes } in
      ignore (infer ctx Env.empty vb.pvb_expr)

let rec do_structure g fc (str : structure) =
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) -> List.iter (do_top_binding g fc) vbs
      | Pstr_eval (e, attrs) ->
          let ctx = { g; fc; u4ok = has_unit_ok attrs } in
          ignore (infer ctx Env.empty e)
      | Pstr_type (_, tds) ->
          List.iter (do_type_decl g fc ~public:false) tds
      | Pstr_open
          { popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ } -> (
          match List.rev (Longident.flatten txt) with
          | last :: _ -> fc.f_opens <- last :: fc.f_opens
          | [] -> ())
      | Pstr_module
          {
            pmb_name = { txt = Some sub; _ };
            pmb_expr = { pmod_desc = Pmod_structure sub_str; _ };
            _;
          } ->
          (* Analyze the nested structure; its top levels are
             addressable as [Sub.name]. *)
          do_structure g { fc with f_mod = sub } sub_str
      | _ -> ())
    str

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

(* Silent rounds over the implementations before the emitting one: a
   unit reaches a call site one definition per round when callers are
   visited before callees, so rounds repeat until the scheme table
   stops changing. [join] can send a scheme back to Unknown, so the
   table need not settle; the cap bounds that case. *)
let max_inference_rounds = 10

let same_schemes a b =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold (fun k v same -> same && Hashtbl.find_opt b k = Some v) a true

let check (front : Front.t) =
  let g =
    {
      vals = Hashtbl.create 512;
      mli_vals = Hashtbl.create 512;
      fields = Hashtbl.create 256;
      diags = [];
      emit = true;
    }
  in
  let fctx (file : Front.file) = { file; f_mod = file.modname; f_opens = [] } in
  let walk_all () =
    List.iter
      (fun (file, str) -> do_structure g (fctx file) str)
      (Front.implementations front)
  in
  (* Interfaces (emitting) seed schemes, field units and U3. *)
  List.iter
    (fun (file, sg) -> do_signature g (fctx file) sg)
    (Front.interfaces front);
  g.emit <- false;
  Front.fixpoint ~max_rounds:max_inference_rounds (fun () ->
      let before = Hashtbl.copy g.vals in
      walk_all ();
      not (same_schemes before g.vals));
  (* The emitting walk with the settled table. *)
  g.emit <- true;
  walk_all ();
  g.diags
