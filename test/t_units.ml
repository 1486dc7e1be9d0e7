(* Tests for the physical-units checker (lib/lint/units.ml).

   Mirrors t_lint's style: in-memory fixtures through [Lint.run],
   keeping the U-rule diagnostics, each rule pinned to its exact
   file:line:col diagnostic, with clean counterparts proving the
   inference does not overfire. The seeded on-disk fixtures under
   test/fixtures/lint (kept alive by `make lint-fixtures`) are also
   exercised here so the two stay in sync. *)

let strings = Alcotest.(list string)
let check srcs = T_lint.family 'U' srcs

let check_diags name expected srcs =
  Alcotest.check strings name expected (check srcs)

let unit_list = "ps, um, ff, ohm, ps_per_um, um2, dimensionless"

(* ----------------------------- U1 --------------------------------- *)

let test_u1_arith () =
  check_diags "naming convention carries units into (+.)"
    [ "lib/cts_core/a.ml:1:24: [U1] unit mismatch: (+.) combines um with ps" ]
    [ ("lib/cts_core/a.ml", "let total len_um t_ps = len_um +. t_ps\n") ];
  check_diags "same units do not fire" []
    [ ("lib/cts_core/a.ml", "let total a_ps t_ps = a_ps +. t_ps\n") ];
  check_diags "min mixes units"
    [ "lib/cts_core/a.ml:1:24: [U1] unit mismatch: (min) combines ps with um" ]
    [ ("lib/cts_core/a.ml", "let worst t_ps len_um = min t_ps len_um\n") ]

let test_u1_compose () =
  (* Multiplication composes dims instead of requiring equality:
     ohm * ff = ps (Elmore), so the result adds cleanly to a delay;
     dividing by the slope recovers um. *)
  check_diags "ohm *. ff composes to ps; ps /. ps_per_um to um" []
    [
      ( "lib/cts_core/a.ml",
        "let elmore r_ohm cap_ff t_ps = (r_ohm *. cap_ff) +. t_ps\n\
         let back t_ps slope_a = t_ps /. (slope_a : (float[@cts.unit \
         \"ps_per_um\"]))\n\
         let len len_um t_ps slope_a =\n\
        \  len_um +. (t_ps /. (slope_a : (float[@cts.unit \"ps_per_um\"])))\n"
      );
    ];
  check_diags "sqrt um2 is um" []
    [
      ( "lib/cts_core/a.ml",
        "let diag (area : (float[@cts.unit \"um2\"])) len_um =\n\
        \  len_um +. sqrt area\n" );
    ];
  check_diags "a composed dim still mismatches"
    [
      "lib/cts_core/a.ml:1:27: [U1] unit mismatch: (+.) combines um2 with um";
    ]
    [ ("lib/cts_core/a.ml", "let bad a_um b_um len_um = (a_um *. b_um) +. len_um\n") ]

let test_u1_application () =
  (* The callee's units come from its .mli; the call site is in
     another file — the interprocedural path. *)
  let mli =
    ( "lib/cts_core/run.mli",
      "val eval : load_cap:(float[@cts.unit \"ff\"]) -> \
       (float[@cts.unit \"um\"]) -> (float[@cts.unit \"ps\"])\n" )
  in
  check_diags "labelled argument checked against the mli scheme"
    [
      "lib/cts_core/use.ml:1:33: [U1] unit mismatch: argument ~load_cap of \
       Run.eval expects ff but gets ps";
    ]
    [
      mli;
      ("lib/cts_core/use.ml", "let go t_ps = Run.eval ~load_cap:t_ps 3.0\n");
    ];
  check_diags "positional argument checked too"
    [
      "lib/cts_core/use.ml:1:47: [U1] unit mismatch: argument 1 of Run.eval \
       expects um but gets ps";
    ]
    [
      mli;
      ( "lib/cts_core/use.ml",
        "let go cap_ff t_ps = Run.eval ~load_cap:cap_ff t_ps\n" );
    ];
  check_diags "correct units pass" []
    [
      mli;
      ( "lib/cts_core/use.ml",
        "let go cap_ff len_um = Run.eval ~load_cap:cap_ff len_um\n" );
    ]

let test_u1_record_field () =
  check_diags "record construction checks field units"
    [
      "lib/cts_core/b.ml:2:29: [U1] unit mismatch: record field delay_ps \
       holds ps but gets um";
    ]
    [
      ( "lib/cts_core/b.ml",
        "type r = { delay_ps : float }\n\
         let mk len_um = { delay_ps = len_um }\n" );
    ];
  check_diags "field access carries the unit out"
    [ "lib/cts_core/b.ml:2:23: [U1] unit mismatch: (+.) combines ps with um" ]
    [
      ( "lib/cts_core/b.ml",
        "type r = { delay_ps : float }\nlet f (x : r) len_um = x.delay_ps +. \
         len_um\n" );
    ]

let test_u1_interprocedural_inference () =
  (* No .mli involved: [stretch]'s result unit is inferred from its
     body (which leans on [slack_ps], itself inferred) during the
     silent pre-passes, then the caller — textually {e earlier} — is
     checked against the resulting scheme. *)
  check_diags "inferred scheme of a later definition checks an earlier caller"
    [ "lib/cts_core/c.ml:1:24: [U1] unit mismatch: (+.) combines um with ps" ]
    [
      ( "lib/cts_core/c.ml",
        "let use len_um snaked = len_um +. stretch snaked\n\
         let stretch t = t +. slack_ps\n\
         let slack_ps = 4.0e-12\n" );
    ]

(* ----------------------------- U2 --------------------------------- *)

let test_u2 () =
  check_diags "ordering across units"
    [ "lib/cts_core/a.ml:1:24: [U2] unit mismatch: (<) compares ff with ps" ]
    [ ("lib/cts_core/a.ml", "let worse cap_ff t_ps = cap_ff < t_ps\n") ];
  check_diags "Float_cmp helpers are unit-checked"
    [
      "lib/cts_core/a.ml:1:24: [U2] unit mismatch: Float_cmp.approx_eq \
       compares ps with um";
    ]
    [
      ( "lib/cts_core/a.ml",
        "let same slew_a len_b = Numerics.Float_cmp.approx_eq slew_a len_b\n"
      );
    ];
  check_diags "compare across units"
    [
      "lib/cts_core/a.ml:1:20: [U2] unit mismatch: (compare) compares um \
       with ps";
    ]
    [ ("lib/cts_core/a.ml", "let c len_um t_ps = compare len_um t_ps\n") ];
  check_diags "equal units compare fine" []
    [ ("lib/cts_core/a.ml", "let worse a_ps t_ps = a_ps < t_ps\n") ]

(* ----------------------------- U3 --------------------------------- *)

let u3_message kind = Printf.sprintf
    "%s has no unit: annotate (float[@cts.unit \"...\"]) with one of: %s"
    kind unit_list

let test_u3 () =
  check_diags "bare public float in a core mli"
    [
      "lib/cts_core/m.mli:1:14: [U3] " ^ u3_message "public positional float";
    ]
    [ ("lib/cts_core/m.mli", "val mystery : float -> int\n") ];
  check_diags "annotation satisfies the rule" []
    [ ("lib/cts_core/m.mli", "val mystery : (float[@cts.unit \"ps\"]) -> int\n") ];
  check_diags "a self-describing name satisfies the rule" []
    [ ("lib/cts_core/m.mli", "val mystery : load_cap:float -> int\n") ];
  check_diags "record fields in scoped mlis are covered"
    [ "lib/dme/m.mli:1:19: [U3] " ^ u3_message "public float in fudge" ]
    [ ("lib/dme/m.mli", "type t = { fudge : float; len1 : float }\n") ];
  check_diags "interfaces outside the core scope are exempt" []
    [ ("lib/util/m.mli", "val mystery : float -> int\n") ]

let test_u3_bad_payload () =
  check_diags "an unknown unit name is itself diagnosed"
    [
      Printf.sprintf
        "lib/cts_core/m.mli:1:20: [U3] unknown unit \"parsec\" in \
         [@cts.unit] (one of: %s)"
        unit_list;
    ]
    [
      ( "lib/cts_core/m.mli",
        "val mystery : (float[@cts.unit \"parsec\"]) -> int\n" );
    ]

(* ----------------------------- U4 --------------------------------- *)

let test_u4 () =
  check_diags "bare constant against a ps value"
    [
      "lib/cts_core/a.ml:1:21: [U4] suspicious literal: (+.) combines a ps \
       value with bare constant 3.0; annotate [@cts.unit_ok] if the \
       constant is in ps";
    ]
    [ ("lib/cts_core/a.ml", "let pad input_slew = input_slew +. 3.0\n") ];
  check_diags "zero is unit-polymorphic" []
    [ ("lib/cts_core/a.ml", "let pad input_slew = input_slew +. 0.0\n") ];
  check_diags "negated literals are still literals"
    [
      "lib/cts_core/a.ml:1:21: [U4] suspicious literal: (-.) combines a ps \
       value with bare constant -1e-12; annotate [@cts.unit_ok] if the \
       constant is in ps";
    ]
    [ ("lib/cts_core/a.ml", "let pad input_slew = input_slew -. (-. 1e-12)\n") ];
  check_diags "[@cts.unit_ok] silences the rule" []
    [
      ( "lib/cts_core/a.ml",
        "let pad input_slew = ((input_slew +. 3.0) [@cts.unit_ok])\n" );
    ];
  check_diags "the guard threads down from an enclosing binding" []
    [
      ( "lib/cts_core/a.ml",
        "let[@cts.unit_ok] pad input_slew = input_slew +. 3.0\n" );
    ];
  check_diags "unknown-unit operands do not fire" []
    [ ("lib/cts_core/a.ml", "let pad x = x +. 3.0\n") ]

(* ----------------------- engine behaviours ------------------------- *)

let test_expression_override () =
  (* [@cts.unit] on an expression overrides inference — the escape
     hatch for genuine unit conversions. *)
  check_diags "an expression annotation converts the unit" []
    [
      ( "lib/cts_core/a.ml",
        "let f len_um t_ps = t_ps +. ((len_um *. 2.0e-13) [@cts.unit \
         \"ps\"])\n" );
    ]

let test_branch_join () =
  check_diags "agreeing branches keep their unit"
    [ "lib/cts_core/a.ml:2:2: [U1] unit mismatch: (+.) combines um with ps" ]
    [
      ( "lib/cts_core/a.ml",
        "let f c a_ps b_ps len_um =\n\
        \  len_um +. (if c then a_ps else b_ps)\n" );
    ];
  check_diags "conflicting branches degrade to unknown (no diagnostic)" []
    [
      ( "lib/cts_core/a.ml",
        "let f c t_ps len_um other_um =\n\
        \  other_um +. (if c then t_ps else len_um)\n" );
    ]

let test_scope () =
  check_diags "U1 does not apply outside lib/ and bin/" []
    [ ("bench/b.ml", "let total len_um t_ps = len_um +. t_ps\n") ];
  check_diags "U1 applies under bin/"
    [ "bin/b.ml:1:24: [U1] unit mismatch: (+.) combines um with ps" ]
    [ ("bin/b.ml", "let total len_um t_ps = len_um +. t_ps\n") ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_syntax_error () =
  match check [ ("lib/cts_core/bad.ml", "let f = (\n") ] with
  | [ d ] -> Alcotest.(check bool) "syntax rule" true (contains d "[syntax]")
  | ds ->
      Alcotest.failf "expected exactly one diagnostic, got %d"
        (List.length ds)

let test_repo_fixtures () =
  (* The on-disk seeded fixtures (also exercised by `make
     lint-fixtures`): each must trigger exactly its rule. *)
  let dir = T_env.repo_path "test/fixtures/lint/lib/cts_core" in
  let expect file rules =
    let r = Lint.run_paths [ Filename.concat dir file ] in
    Alcotest.(check (list string))
      (file ^ " rules") rules
      (List.filter_map
         (fun (d : Front.diagnostic) ->
           if d.rule.[0] = 'U' then Some d.rule else None)
         r.diagnostics)
  in
  expect "u1_swap.ml" [ "U1" ];
  expect "u2_compare.ml" [ "U2"; "U2" ];
  expect "u3_unannotated.mli" [ "U3" ];
  expect "u4_literal.ml" [ "U4" ]

let test_repo_lints_clean () =
  (* The acceptance bar: the repository's own sources carry no unit
     diagnostics. *)
  Alcotest.(check (list string))
    "no unit diagnostics" [] (T_lint.repo_family 'U')

let suite =
  [
    Alcotest.test_case "U1: arithmetic across units" `Quick test_u1_arith;
    Alcotest.test_case "U1: *. and /. compose dims" `Quick test_u1_compose;
    Alcotest.test_case "U1: application against mli schemes" `Quick
      test_u1_application;
    Alcotest.test_case "U1: record fields" `Quick test_u1_record_field;
    Alcotest.test_case "U1: interprocedural inference" `Quick
      test_u1_interprocedural_inference;
    Alcotest.test_case "U2: comparisons across units" `Quick test_u2;
    Alcotest.test_case "U3: unannotated public floats" `Quick test_u3;
    Alcotest.test_case "U3: bad attribute payloads" `Quick
      test_u3_bad_payload;
    Alcotest.test_case "U4: suspicious literals" `Quick test_u4;
    Alcotest.test_case "expression [@cts.unit] override" `Quick
      test_expression_override;
    Alcotest.test_case "branch joins" `Quick test_branch_join;
    Alcotest.test_case "rule scoping" `Quick test_scope;
    Alcotest.test_case "syntax errors reported" `Quick test_syntax_error;
    Alcotest.test_case "seeded fixtures fire" `Quick test_repo_fixtures;
    Alcotest.test_case "repository lints clean" `Quick test_repo_lints_clean;
  ]
