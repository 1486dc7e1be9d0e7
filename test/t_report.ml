(* Tests for table rendering, experiment selection and the cheap
   experiment drivers (the heavy CTS tables run through `cts_run
   experiments`; here we validate the figure drivers' shapes on the
   Fast library). *)

let check_f eps = Alcotest.(check (float eps))

let render_alignment () =
  let out =
    Tables.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  let lines = String.split_on_char '\n' out in
  (match lines with
  | header :: rule :: _ ->
      Alcotest.(check bool) "rule present" true
        (String.for_all (fun c -> c = '-') rule && String.length rule > 0);
      Alcotest.(check bool) "header first" true
        (String.length header >= 4)
  | _ -> Alcotest.fail "missing lines");
  (* Ragged rows don't crash. *)
  ignore (Tables.render ~header:[ "x" ] [ [ "1"; "2"; "3" ]; [] ])

let unit_formatting () =
  Alcotest.(check string) "ps" "89.5" (Tables.ps 89.5e-12);
  Alcotest.(check string) "ns" "2.26" (Tables.ns 2.26e-9);
  Alcotest.(check string) "um" "123" (Tables.um 123.4);
  Alcotest.(check string) "pct" "-6.13%" (Tables.pct (-0.0613))

let select_experiments () =
  let ids names =
    match Experiments.select names with
    | Ok drivers -> List.map fst drivers
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check (list string)) "all by default" (List.map fst Experiments.all)
    (ids []);
  Alcotest.(check (list string)) "in Experiments.all order, each once"
    [ "fig1.1"; "tab5.1"; "abl-slew" ]
    (ids [ "abl-slew"; "tab5.1"; "fig1.1"; "tab5.1" ]);
  match Experiments.select [ "fig1.1"; "tab9.9" ] with
  | Ok _ -> Alcotest.fail "tab9.9 accepted"
  | Error msg ->
      let contains needle =
        let nh = String.length msg and nn = String.length needle in
        let rec at i = i + nn <= nh && (String.sub msg i nn = needle || at (i + 1)) in
        at 0
      in
      List.iter
        (fun id ->
          Alcotest.(check bool) (id ^ " named in the error") true (contains id))
        ("tab9.9" :: List.map fst Experiments.all)

let env =
  lazy
    (let dl = T_env.get_dl () in
     ignore dl;
     {
       Experiments.tech = T_env.tech;
       lib = T_env.lib;
       dl = T_env.get_dl ();
       scale = 0.05;
       sim_config = Spice_sim.Transient.default_config;
     })

let fig1_1_shape () =
  let rows = Experiments.fig1_1_rows (Lazy.force env) in
  Alcotest.(check bool) "has rows" true (List.length rows >= 5);
  (* Slew grows with length and 30X beats 20X but only modestly. *)
  let _, s20_first, _ = List.hd rows in
  let _, s20_last, s30_last = List.nth rows (List.length rows - 1) in
  Alcotest.(check bool) "slew grows" true (s20_last > 3. *. s20_first);
  Alcotest.(check bool) "30X better" true (s30_last < s20_last);
  Alcotest.(check bool) "but not a fix (less than 2x better)" true
    (s30_last > s20_last /. 2.)

let fig3_2_shape () =
  let shift = Experiments.fig3_2_shift (Lazy.force env) in
  (* The paper reports 32 ps; we accept the same order of magnitude. *)
  Alcotest.(check bool) "tens of ps" true (shift > 8e-12 && shift < 80e-12)

let fig_tables_render () =
  let e = Lazy.force env in
  List.iter
    (fun name ->
      let text = List.assoc name Experiments.all e in
      if String.length text < 100 then
        Alcotest.failf "driver %s produced no table" name)
    [ "fig3.4"; "fig3.6" ]

let gsrc_row_on_tiny_bench () =
  let e = Lazy.force env in
  let d = Bmark.Synthetic.scaled (Bmark.Synthetic.find "r1") 0.04 in
  let row = Experiments.run_gsrc_row e ~baseline:false d in
  Alcotest.(check bool) "slew within limit" true (row.Experiments.worst_slew <= 100e-12);
  Alcotest.(check bool) "skew below latency" true
    (row.Experiments.skew < row.Experiments.latency);
  check_f 1e-9 "runtime recorded nonneg" (Float.abs row.Experiments.runtime)
    row.Experiments.runtime

let suite =
  [
    Alcotest.test_case "table alignment" `Quick render_alignment;
    Alcotest.test_case "unit formatting" `Quick unit_formatting;
    Alcotest.test_case "experiment selection" `Quick select_experiments;
    Alcotest.test_case "fig1.1 shape" `Slow fig1_1_shape;
    Alcotest.test_case "fig3.2 shape" `Slow fig3_2_shape;
    Alcotest.test_case "figure drivers render" `Quick fig_tables_render;
    Alcotest.test_case "gsrc row tiny" `Slow gsrc_row_on_tiny_bench;
  ]
