(* Tests for piecewise-linear waveforms. *)

module W = Waveform

let check_f eps = Alcotest.(check (float eps))
let vdd = 1.0

let make_rejects_bad_input () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Waveform.make: empty or mismatched arrays") (fun () ->
      ignore (W.make [||] [||]));
  Alcotest.check_raises "mismatched"
    (Invalid_argument "Waveform.make: empty or mismatched arrays") (fun () ->
      ignore (W.make [| 0. |] [| 0.; 1. |]));
  Alcotest.check_raises "non-increasing"
    (Invalid_argument "Waveform.make: times not strictly increasing")
    (fun () -> ignore (W.make [| 0.; 0. |] [| 0.; 1. |]));
  Alcotest.check_raises "NaN time"
    (Invalid_argument "Waveform.make: times not strictly increasing")
    (fun () -> ignore (W.make [| 0.; Float.nan; 1. |] [| 0.; 1.; 1. |]))

let value_interpolation () =
  let w = W.make [| 0.; 1.; 2. |] [| 0.; 1.; 0.5 |] in
  check_f 1e-12 "at sample" 1. (W.value_at w 1.);
  check_f 1e-12 "interpolated" 0.5 (W.value_at w 0.5);
  check_f 1e-12 "interpolated falling" 0.75 (W.value_at w 1.5);
  check_f 1e-12 "clamped before" 0. (W.value_at w (-5.));
  check_f 1e-12 "clamped after" 0.5 (W.value_at w 10.)

let crossing_interpolated () =
  let w = W.make [| 0.; 2. |] [| 0.; 1. |] in
  (match W.crossing w 0.25 with
  | Some t -> check_f 1e-12 "25% crossing" 0.5 t
  | None -> Alcotest.fail "crossing expected");
  Alcotest.(check bool) "never reaches 2.0" true (W.crossing w 2. = None)

let crossing_first_upward () =
  (* Non-monotone: crosses 0.5 twice; first crossing wins. *)
  let w = W.make [| 0.; 1.; 2.; 3. |] [| 0.; 0.8; 0.2; 1. |] in
  match W.crossing w 0.5 with
  | Some t -> check_f 1e-9 "first crossing" 0.625 t
  | None -> Alcotest.fail "crossing expected"

let ramp_slew_exact () =
  let w = W.ramp ~vdd ~slew:100e-12 () in
  match W.slew_10_90 w ~vdd with
  | Some s -> check_f 1e-15 "requested slew" 100e-12 s
  | None -> Alcotest.fail "slew expected"

let smooth_curve_slew_exact () =
  let w = W.smooth_curve ~vdd ~slew:150e-12 () in
  match W.slew_10_90 w ~vdd with
  | Some s -> check_f 2e-12 "requested slew" 150e-12 s
  | None -> Alcotest.fail "slew expected"

let smooth_curve_reaches_vdd () =
  let w = W.smooth_curve ~vdd ~slew:80e-12 () in
  check_f 1e-9 "final value" vdd (W.final_value w);
  Alcotest.(check bool) "complete rise" true (W.is_complete_rise w ~vdd)

let delay_50_between () =
  let a = W.ramp ~vdd ~slew:80e-12 () in
  let b = W.shift a 30e-12 in
  match W.delay_50 a b ~vdd with
  | Some d -> check_f 1e-15 "50-50 delay" 30e-12 d
  | None -> Alcotest.fail "delay expected"

let shift_preserves_shape () =
  let w = W.ramp ~vdd ~slew:100e-12 () in
  let s = W.shift w 1e-9 in
  check_f 1e-15 "start shifted" (W.t_start w +. 1e-9) (W.t_start s);
  check_f 1e-15 "value preserved" (W.value_at w 50e-12)
    (W.value_at s (50e-12 +. 1e-9))

let crop_before_keeps_tail () =
  let w = W.make [| 0.; 1.; 2.; 3.; 4. |] [| 0.; 0.1; 0.5; 0.9; 1. |] in
  let c = W.crop_before w 2.5 in
  Alcotest.(check int) "samples kept" 3 (W.n_samples c);
  check_f 1e-12 "absolute time preserved" 2. (W.t_start c);
  check_f 1e-12 "values preserved" 0.9 (W.value_at c 3.)

let crop_before_start_noop () =
  let w = W.make [| 0.; 1. |] [| 0.; 1. |] in
  Alcotest.(check int) "no-op crop" 2 (W.n_samples (W.crop_before w (-1.)))

let qcheck_ramp_slew =
  QCheck.Test.make ~name:"ramp 10-90 slew equals request" ~count:100
    QCheck.(float_range 1e-12 1e-9)
    (fun slew ->
      let w = W.ramp ~vdd ~slew () in
      match W.slew_10_90 w ~vdd with
      | Some s -> Float.abs (s -. slew) < 1e-15 +. (1e-9 *. slew)
      | None -> false)

let qcheck_crossing_monotone_levels =
  QCheck.Test.make ~name:"higher level crosses later on a rise" ~count:100
    QCheck.(pair (float_range 0.05 0.45) (float_range 0.5 0.95))
    (fun (lo, hi) ->
      let w = W.smooth_curve ~vdd ~slew:100e-12 () in
      match (W.crossing w lo, W.crossing w hi) with
      | Some t1, Some t2 -> t1 <= t2
      | _, _ -> false)

(* The cursor against value_at's binary search, bit for bit, at
   non-decreasing times that hit every sample time exactly (where the
   segment choice decides the bits), repeat, and fall before the first
   and after the last sample. *)
let qcheck_cursor_matches_value_at =
  QCheck.Test.make ~name:"cursor read = value_at bits" ~count:300
    QCheck.(pair (int_range 1 12) (int_bound 1_000_000))
    (fun (n, seed) ->
      let rng = Util.Rng.create seed in
      let ts = Array.make n 0. in
      for i = 1 to n - 1 do
        ts.(i) <- ts.(i - 1) +. Util.Rng.float_range rng 0.01 3.
      done;
      let w = W.make ts (Array.init n (fun _ -> Util.Rng.float_range rng (-0.2) 1.2)) in
      let probes =
        Array.to_list ts
        @ List.init 40 (fun _ -> Util.Rng.float_range rng (-1.) (ts.(n - 1) +. 1.))
      in
      let probes = List.sort compare (probes @ probes) in
      let c = W.cursor w and s = { W.time = 0.; value = 0. } in
      List.for_all
        (fun t ->
          s.W.time <- t;
          W.read c s;
          Int64.equal (Int64.bits_of_float s.W.value)
            (Int64.bits_of_float (W.value_at w t)))
        probes)

let suite ~property =
  [
    Alcotest.test_case "make validation" `Quick make_rejects_bad_input;
    property qcheck_cursor_matches_value_at;
    Alcotest.test_case "value interpolation" `Quick value_interpolation;
    Alcotest.test_case "crossing interpolation" `Quick crossing_interpolated;
    Alcotest.test_case "first upward crossing" `Quick crossing_first_upward;
    Alcotest.test_case "ramp slew exact" `Quick ramp_slew_exact;
    Alcotest.test_case "smooth curve slew" `Quick smooth_curve_slew_exact;
    Alcotest.test_case "smooth curve rises" `Quick smooth_curve_reaches_vdd;
    Alcotest.test_case "delay between waveforms" `Quick delay_50_between;
    Alcotest.test_case "shift" `Quick shift_preserves_shape;
    Alcotest.test_case "crop keeps tail" `Quick crop_before_keeps_tail;
    Alcotest.test_case "crop no-op" `Quick crop_before_start_noop;
    property qcheck_ramp_slew;
    property qcheck_crossing_monotone_levels;
  ]
