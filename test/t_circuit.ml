(* Tests for the circuit library: technology, buffers, devices, RC trees,
   SPICE deck emission. *)

module Tech = Circuit.Tech
module B = Circuit.Buffer_lib
module D = Circuit.Device
module Rc = Circuit.Rc_tree

let tech = Tech.default
let check_f eps = Alcotest.(check (float eps))

let wire_params_linear () =
  check_f 1e-12 "res" (tech.Tech.unit_res *. 100.) (Tech.wire_res tech 100.);
  check_f 1e-24 "cap" (tech.Tech.unit_cap *. 100.) (Tech.wire_cap tech 100.)

let buffer_library_sizes () =
  let lib = B.default_library in
  Alcotest.(check int) "3 buffer types" 3 (List.length lib);
  Alcotest.(check string) "smallest" "BUF10X" (B.smallest lib).B.name;
  Alcotest.(check string) "largest" "BUF30X" (B.largest lib).B.name;
  let b = B.by_name lib "BUF20X" in
  check_f 1e-9 "size" 20. b.B.size;
  check_f 1e-9 "stage1 = size/4" 5. b.B.stage1_size

let buffer_caps_scale_with_size () =
  let lib = B.default_library in
  let b10 = B.by_name lib "BUF10X" and b30 = B.by_name lib "BUF30X" in
  Alcotest.(check bool) "input cap grows" true
    (B.input_cap tech b30 > B.input_cap tech b10);
  Alcotest.(check bool) "output cap grows" true
    (B.output_cap tech b30 > B.output_cap tech b10);
  check_f 1e-18 "3x output cap" (3. *. B.output_cap tech b10)
    (B.output_cap tech b30)

let buffer_drive_resistance_inverse () =
  let lib = B.default_library in
  let r10 = B.drive_resistance tech (B.by_name lib "BUF10X") in
  let r20 = B.drive_resistance tech (B.by_name lib "BUF20X") in
  check_f 1e-6 "halves with doubling" (r10 /. 2.) r20

let by_name_unknown_cell_names_the_library () =
  (* Regression: a missing cell used to escape as a bare [Not_found]
     that said nothing about which lookup failed or what was
     available. *)
  Alcotest.check_raises "unknown cell"
    (Invalid_argument
       "Buffer_lib.by_name: no cell \"BUF99X\" in library [BUF10X; BUF20X; \
        BUF30X]") (fun () -> ignore (B.by_name B.default_library "BUF99X"))

let area_x_sums_both_stages () =
  let b = B.by_name B.default_library "BUF20X" in
  check_f 1e-9 "stage2 + stage1" 25. (B.area_x b)

let buffer_rejects_bad_size () =
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Buffer_lib.make: non-positive size") (fun () ->
      ignore (B.make ~name:"x" ~size:0.))

let nmos_cutoff_and_regions () =
  check_f 1e-18 "off below vt" 0.
    (D.nmos_current tech ~size:10. ~vgs:0.2 ~vds:0.5);
  check_f 1e-18 "no current at vds=0" 0.
    (D.nmos_current tech ~size:10. ~vgs:1.0 ~vds:0.);
  let i_sat = D.nmos_current tech ~size:10. ~vgs:1.0 ~vds:1.0 in
  let i_lin = D.nmos_current tech ~size:10. ~vgs:1.0 ~vds:0.1 in
  Alcotest.(check bool) "linear < saturation" true (i_lin < i_sat);
  Alcotest.(check bool) "saturation positive" true (i_sat > 0.);
  (* Saturation current is flat in vds past vdsat. *)
  check_f 1e-18 "flat saturation" i_sat
    (D.nmos_current tech ~size:10. ~vgs:1.0 ~vds:0.9)

let nmos_scales_with_size () =
  let i1 = D.nmos_current tech ~size:10. ~vgs:1.0 ~vds:1.0 in
  let i2 = D.nmos_current tech ~size:20. ~vgs:1.0 ~vds:1.0 in
  check_f 1e-12 "linear in size" (2. *. i1) i2

let inverter_pull_directions () =
  (* Input low: PMOS pulls the (low) output up. *)
  Alcotest.(check bool) "pull up" true
    (D.inverter_current tech ~size:10. ~vin:0. ~vout:0.2 > 0.);
  (* Input high: NMOS pulls the (high) output down. *)
  Alcotest.(check bool) "pull down" true
    (D.inverter_current tech ~size:10. ~vin:1.0 ~vout:0.8 < 0.);
  (* Stable rails carry no current. *)
  check_f 1e-18 "high output, low input stable" 0.
    (D.inverter_current tech ~size:10. ~vin:0. ~vout:1.0);
  check_f 1e-18 "low output, high input stable" 0.
    (D.inverter_current tech ~size:10. ~vin:1.0 ~vout:0.)

let inverter_conductance_nonneg () =
  List.iter
    (fun (vin, vout) ->
      Alcotest.(check bool)
        (Printf.sprintf "g >= 0 at (%g,%g)" vin vout)
        true
        (D.inverter_conductance tech ~size:10. ~vin ~vout >= 0.))
    [ (0., 0.); (0.5, 0.5); (1., 1.); (0.3, 0.9); (0.9, 0.1) ]

let rc_tree_wire_conservation () =
  let tail = Rc.leaf ~tag:"end" 5e-15 in
  let r, chain = Rc.wire tech ~length:1000. tail in
  let tree = Rc.node [ (r, chain) ] in
  (* Total capacitance = wire cap + load cap. *)
  check_f 1e-20 "cap conserved"
    (Tech.wire_cap tech 1000. +. 5e-15)
    (Rc.total_cap tree);
  (* Total resistance = sum of edge resistances = wire res. *)
  let rec total_res (n : Rc.t) =
    List.fold_left (fun acc (r, c) -> acc +. r +. total_res c) 0. n.Rc.children
  in
  check_f 1e-9 "res conserved" (Tech.wire_res tech 1000.) (total_res tree)

let rc_tree_wire_discretization () =
  let tail = Rc.leaf 1e-15 in
  let _, chain = Rc.wire tech ~min_segments:10 ~max_segment_len:25. ~length:1000. tail in
  (* 1000 um at <= 25 um per lump: at least 40 nodes in the chain. *)
  Alcotest.(check bool) "enough lumps" true (Rc.n_nodes chain >= 40)

let rc_tree_zero_length_wire () =
  let tail = Rc.leaf ~tag:"x" 1e-15 in
  let r, chain = Rc.wire tech ~length:0. tail in
  Alcotest.(check bool) "tiny resistance" true (r <= 1e-3);
  Alcotest.(check int) "tail unchanged" 1 (Rc.n_nodes chain)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  go 0

let spice_deck_text () =
  let header = Circuit.Spice_deck.header tech in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains header needle))
    [ ".subckt BUF10X"; ".subckt BUF20X"; ".subckt BUF30X"; "Vsupply" ]

let suite =
  [
    Alcotest.test_case "wire params linear" `Quick wire_params_linear;
    Alcotest.test_case "buffer library" `Quick buffer_library_sizes;
    Alcotest.test_case "buffer caps scale" `Quick buffer_caps_scale_with_size;
    Alcotest.test_case "drive resistance" `Quick buffer_drive_resistance_inverse;
    Alcotest.test_case "buffer size validation" `Quick buffer_rejects_bad_size;
    Alcotest.test_case "by_name unknown cell diagnostic" `Quick
      by_name_unknown_cell_names_the_library;
    Alcotest.test_case "area_x sums both stages" `Quick
      area_x_sums_both_stages;
    Alcotest.test_case "nmos regions" `Quick nmos_cutoff_and_regions;
    Alcotest.test_case "nmos size scaling" `Quick nmos_scales_with_size;
    Alcotest.test_case "inverter directions" `Quick inverter_pull_directions;
    Alcotest.test_case "inverter conductance" `Quick inverter_conductance_nonneg;
    Alcotest.test_case "rc wire conservation" `Quick rc_tree_wire_conservation;
    Alcotest.test_case "rc wire discretization" `Quick rc_tree_wire_discretization;
    Alcotest.test_case "rc zero-length wire" `Quick rc_tree_zero_length_wire;
    Alcotest.test_case "spice deck text" `Quick spice_deck_text;
  ]
