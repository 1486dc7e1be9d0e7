(* Tests for benchmark formats and the synthetic generator. *)

module G = Bmark.Gsrc_format
module I = Bmark.Ispd_format
module S = Bmark.Synthetic

let check_f eps = Alcotest.(check (float eps))

let gsrc_roundtrip () =
  let sinks = T_env.random_sinks ~seed:61 ~n:25 ~die:5000. () in
  let text = G.render ~unit_res:0.3 ~unit_cap:0.2e-15 sinks in
  let parsed, meta = G.parse text in
  Alcotest.(check int) "count" 25 (List.length parsed);
  Alcotest.(check (option (float 1e-9))) "unit res" (Some 0.3)
    meta.G.unit_res;
  List.iter2
    (fun (a : Sinks.spec) (b : Sinks.spec) ->
      Alcotest.(check string) "name" a.Sinks.name b.Sinks.name;
      check_f 1e-3 "x" a.Sinks.pos.Geometry.Point.x b.Sinks.pos.Geometry.Point.x;
      check_f 1e-20 "cap" a.Sinks.cap b.Sinks.cap)
    sinks parsed

let gsrc_anonymous_sinks () =
  let text = "NumPins : 2\n10.0 20.0 1e-14\n30.0 40.0 2e-14\n" in
  let parsed, _ = G.parse text in
  Alcotest.(check (list string)) "auto names" [ "p0"; "p1" ]
    (List.map (fun (s : Sinks.spec) -> s.Sinks.name) parsed)

let gsrc_comments_and_blanks () =
  let text = "# a comment\n\nNumPins : 1\ns0 1 2 3e-15 # trailing\n" in
  let parsed, _ = G.parse text in
  Alcotest.(check int) "one sink" 1 (List.length parsed)

let gsrc_count_mismatch () =
  let text = "NumPins : 3\ns0 1 2 3e-15\n" in
  Alcotest.(check bool) "mismatch raises" true
    (try ignore (G.parse text); false with Failure _ -> true)

let gsrc_malformed_line () =
  Alcotest.(check bool) "bad record raises" true
    (try ignore (G.parse "s0 1 2\n"); false with Failure _ -> true)

let ispd_roundtrip () =
  let sinks = T_env.random_sinks ~seed:62 ~n:10 ~die:20000. () in
  let t =
    {
      I.sinks;
      wirelib = [ (0.3, 0.2e-15) ];
      bufferlib = [ ("BUF10X", 10.); ("BUF30X", 30.) ];
      blockages =
        [ Geometry.Bbox.make 100. 100. 2000. 1500.;
          Geometry.Bbox.make 5000. 5000. 9000. 6000. ];
      slew_limit = Some 100e-12;
      die = Some (0., 0., 20000., 20000.);
    }
  in
  let t' = I.parse (I.render t) in
  Alcotest.(check int) "sinks" 10 (List.length t'.I.sinks);
  Alcotest.(check int) "wirelib" 1 (List.length t'.I.wirelib);
  Alcotest.(check int) "bufferlib" 2 (List.length t'.I.bufferlib);
  Alcotest.(check int) "blockages" 2 (List.length t'.I.blockages);
  (match t'.I.blockages with
  | b :: _ -> check_f 1e-3 "blockage coord" 2000. b.Geometry.Bbox.xmax
  | [] -> Alcotest.fail "blockages lost");
  Alcotest.(check (option (float 1e-18))) "slew limit" (Some 100e-12)
    t'.I.slew_limit;
  (match t'.I.die with
  | Some (_, _, x, _) -> check_f 1e-3 "die" 20000. x
  | None -> Alcotest.fail "die lost")

let ispd_minimal () =
  let t = I.parse "num sink 1\nff0 5.0 6.0 1e-14\n" in
  Alcotest.(check int) "one sink" 1 (List.length t.I.sinks);
  Alcotest.(check bool) "no slew limit" true (t.I.slew_limit = None)

let ispd_truncated_section () =
  Alcotest.(check bool) "truncated raises" true
    (try ignore (I.parse "num sink 5\nff0 1 2 3e-15\n"); false
     with Failure _ -> true)

let ispd_unknown_section () =
  Alcotest.(check bool) "unknown raises" true
    (try ignore (I.parse "bogus section here\n"); false
     with Failure _ -> true)

(* One-line mutations of a valid file: each must fail with the parser's
   line-numbered error for the mutated line, not a bare [Failure
   "int_of_string"] or a silently empty section. *)
let parse_errors_name_the_line () =
  let check_table parser prefix base table =
    ignore (parser (String.concat "\n" base));
    List.iter
      (fun (lineno, line) ->
        let text =
          String.concat "\n"
            (List.mapi (fun i l -> if i + 1 = lineno then line else l) base)
        in
        let want = Printf.sprintf "%s: line %d:" prefix lineno in
        match parser text with
        | _ -> Alcotest.failf "%S accepted %S" prefix line
        | exception Failure m ->
            if
              String.length m < String.length want
              || String.sub m 0 (String.length want) <> want
            then Alcotest.failf "%S: got %S, want %S..." line m want)
      table
  in
  check_table
    (fun t -> ignore (G.parse t))
    "Gsrc_format.parse"
    [ "NumPins : 2"; "UnitRes : 0.3"; "UnitCap : 2e-16"; "s0 1 2 3e-15";
      "s1 4 5 6e-15" ]
    [
      (1, "NumPins : x"); (1, "NumPins : -2"); (1, "NumPins: 2.5");
      (2, "UnitRes : abc"); (2, "UnitRes: 0.3ohm"); (3, "UnitCap : 1e-15x");
      (3, "UnitCap: ?"); (4, "s0 1 2"); (5, "s1 4 y 6e-15");
    ];
  check_table
    (fun t -> ignore (I.parse t))
    "Ispd_format.parse"
    [ "die 0 0 100 100"; "slew limit 1e-10"; "num sink 2"; "ff0 1 2 3e-15";
      "ff1 4 5 6e-15"; "num wirelib 1"; "1 0.3 2e-16"; "num bufferlib 1";
      "1 BUF10X 10"; "num blockage 1"; "10 10 20 20" ]
    [
      (1, "die 0 0 x 100"); (2, "slew limit fast"); (3, "num sink two");
      (3, "num sink -1"); (4, "ff0 1 two 3e-15"); (6, "num wirelib -3");
      (6, "num wirelib x"); (7, "1 0.3 cap"); (7, "1 r 2e-16");
      (8, "num bufferlib 1.5"); (9, "1 BUF10X big"); (10, "num blockage -1");
      (11, "10 10 20 y"); (11, "20 10 10 20");
    ]

let synthetic_descriptor_counts () =
  (* The published sink counts of the paper's benchmark suites. *)
  let expect =
    [ ("r1", 267); ("r2", 598); ("r3", 862); ("r4", 1903); ("r5", 3101);
      ("f11", 121); ("f12", 117); ("f21", 117); ("f22", 91); ("f31", 273);
      ("f32", 190); ("fnb1", 330) ]
  in
  List.iter
    (fun (name, n) ->
      Alcotest.(check int) name n (S.find name).S.n_sinks)
    expect

let synthetic_generation_valid () =
  let d = S.scaled (S.find "r1") 0.2 in
  let sinks = S.sinks d in
  Alcotest.(check int) "count" d.S.n_sinks (List.length sinks);
  Alcotest.(check (list string)) "valid" [] (Sinks.validate sinks);
  (* Every sink lies on the die. *)
  List.iter
    (fun (s : Sinks.spec) ->
      let p = s.Sinks.pos in
      if
        p.Geometry.Point.x < 0.
        || p.Geometry.Point.x > d.S.die
        || p.Geometry.Point.y < 0.
        || p.Geometry.Point.y > d.S.die
      then Alcotest.fail "sink off-die")
    sinks

let synthetic_deterministic () =
  let d = S.scaled (S.find "r2") 0.1 in
  let a = S.sinks d and b = S.sinks d in
  List.iter2
    (fun (x : Sinks.spec) (y : Sinks.spec) ->
      Alcotest.(check string) "same name" x.Sinks.name y.Sinks.name;
      check_f 1e-12 "same x" x.Sinks.pos.Geometry.Point.x
        y.Sinks.pos.Geometry.Point.x;
      check_f 1e-24 "same cap" x.Sinks.cap y.Sinks.cap)
    a b

let synthetic_scaled_bounds () =
  let d = S.find "r5" in
  let s = S.scaled d 0.1 in
  Alcotest.(check int) "10% sinks" 310 s.S.n_sinks;
  Alcotest.(check bool) "die shrinks" true (s.S.die < d.S.die);
  Alcotest.(check bool) "scaled rejects junk" true
    (try ignore (S.scaled d 0.); false with Invalid_argument _ -> true)

let synthetic_differs_across_benchmarks () =
  let a = List.hd (S.sinks (S.scaled (S.find "r1") 0.05)) in
  let b = List.hd (S.sinks (S.scaled (S.find "r2") 0.05)) in
  Alcotest.(check bool) "different instances" true
    (a.Sinks.pos.Geometry.Point.x <> b.Sinks.pos.Geometry.Point.x)

let gsrc_file_io () =
  let sinks = T_env.random_sinks ~seed:63 ~n:8 ~die:1000. () in
  let path = Filename.temp_file "bmark" ".bst" in
  G.write_file sinks path;
  let parsed, _ = G.parse_file path in
  Sys.remove path;
  Alcotest.(check int) "file roundtrip" 8 (List.length parsed)

let suite =
  [
    Alcotest.test_case "gsrc roundtrip" `Quick gsrc_roundtrip;
    Alcotest.test_case "gsrc anonymous" `Quick gsrc_anonymous_sinks;
    Alcotest.test_case "gsrc comments" `Quick gsrc_comments_and_blanks;
    Alcotest.test_case "gsrc count mismatch" `Quick gsrc_count_mismatch;
    Alcotest.test_case "gsrc malformed" `Quick gsrc_malformed_line;
    Alcotest.test_case "ispd roundtrip" `Quick ispd_roundtrip;
    Alcotest.test_case "ispd minimal" `Quick ispd_minimal;
    Alcotest.test_case "ispd truncated" `Quick ispd_truncated_section;
    Alcotest.test_case "ispd unknown section" `Quick ispd_unknown_section;
    Alcotest.test_case "parse errors name the line" `Quick
      parse_errors_name_the_line;
    Alcotest.test_case "descriptor sink counts" `Quick synthetic_descriptor_counts;
    Alcotest.test_case "synthetic valid" `Quick synthetic_generation_valid;
    Alcotest.test_case "synthetic deterministic" `Quick synthetic_deterministic;
    Alcotest.test_case "synthetic scaling" `Quick synthetic_scaled_bounds;
    Alcotest.test_case "benchmarks distinct" `Quick
      synthetic_differs_across_benchmarks;
    Alcotest.test_case "gsrc file io" `Quick gsrc_file_io;
  ]
