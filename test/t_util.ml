(* Tests for the util library: deterministic RNG and statistics. *)

let check_f = Alcotest.(check (float 1e-9))

let rng_deterministic () =
  let a = Util.Rng.create 42 and b = Util.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Util.Rng.int64 a) (Util.Rng.int64 b)
  done

let rng_seed_sensitivity () =
  let a = Util.Rng.create 1 and b = Util.Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" true
    (Util.Rng.int64 a <> Util.Rng.int64 b)

let rng_float_bounds () =
  let rng = Util.Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Util.Rng.float rng 5. in
    if x < 0. || x >= 5. then Alcotest.fail "float out of [0,5)"
  done

let rng_int_bounds () =
  let rng = Util.Rng.create 4 in
  for _ = 1 to 1000 do
    let x = Util.Rng.int rng 17 in
    if x < 0 || x >= 17 then Alcotest.fail "int out of [0,17)"
  done

let rng_int_coverage () =
  let rng = Util.Rng.create 5 in
  let seen = Array.make 8 false in
  for _ = 1 to 500 do
    seen.(Util.Rng.int rng 8) <- true
  done;
  Array.iteri
    (fun i s -> Alcotest.(check bool) (Printf.sprintf "value %d seen" i) true s)
    seen

let rng_gaussian_moments () =
  let rng = Util.Rng.create 6 in
  let n = 20000 in
  let xs = Array.init n (fun _ -> Util.Rng.gaussian rng) in
  let mean = Util.Stats.mean xs in
  let sd = Util.Stats.stddev xs in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.05);
  Alcotest.(check bool) "stddev near 1" true (Float.abs (sd -. 1.) < 0.05)

let stats_mean_variance () =
  let a = [| 1.; 2.; 3.; 4. |] in
  check_f "mean" 2.5 (Util.Stats.mean a);
  check_f "stddev" (sqrt 1.25) (Util.Stats.stddev a)

let stats_min_max_spread () =
  let a = [| 3.; -1.; 7.; 2. |] in
  let lo, hi = Util.Stats.min_max a in
  check_f "min" (-1.) lo;
  check_f "max" 7. hi;
  let lo1, hi1 = Util.Stats.min_max [| 5. |] in
  check_f "singleton spread" 0. (hi1 -. lo1)

let stats_percentile () =
  let a = [| 10.; 20.; 30.; 40.; 50. |] in
  check_f "p0" 10. (Util.Stats.percentile a 0.);
  check_f "p50" 30. (Util.Stats.percentile a 0.5);
  check_f "p100" 50. (Util.Stats.percentile a 1.);
  check_f "p25 interpolated" 20. (Util.Stats.percentile a 0.25)

let stats_percentile_edges () =
  (* Documented edge behaviour: p=0 is the minimum, p=1 the maximum,
     a singleton answers itself at every p. *)
  let single = [| 42. |] in
  check_f "singleton p0" 42. (Util.Stats.percentile single 0.);
  check_f "singleton p0.3" 42. (Util.Stats.percentile single 0.3);
  check_f "singleton p1" 42. (Util.Stats.percentile single 1.);
  let unsorted = [| 5.; 1.; 9.; 3. |] in
  check_f "p0 = min, unsorted input" 1. (Util.Stats.percentile unsorted 0.);
  check_f "p1 = max, unsorted input" 9. (Util.Stats.percentile unsorted 1.)

let stats_percentiles_batch () =
  let a = [| 40.; 10.; 50.; 20.; 30. |] in
  (* One partial application, one sort, applied at every point: the
     values are the linear interpolation on the sorted copy. *)
  let pct = Util.Stats.percentile a in
  List.iter
    (fun (p, want) ->
      check_f (Printf.sprintf "p=%g" p) want (pct p))
    [ (0., 10.); (0.25, 20.); (0.5, 30.); (0.95, 48.); (1., 50.) ];
  Alcotest.(check bool) "input left unsorted" true (a.(0) = 40.)

let stats_errors () =
  let a = [| 1.; 2.; 3. |] and b = [| 1.5; 2.; 2. |] in
  check_f "max abs" 1. (Util.Stats.max_abs_error a b);
  check_f "rms" (sqrt ((0.25 +. 0. +. 1.) /. 3.)) (Util.Stats.rms_error a b)

let qcheck_percentile_bounds =
  QCheck.Test.make ~name:"percentile stays within min/max" ~count:200
    QCheck.(pair (array_of_size Gen.(int_range 1 20) (float_bound_exclusive 100.)) (float_bound_inclusive 1.))
    (fun (a, p) ->
      QCheck.assume (Array.length a > 0);
      let v = Util.Stats.percentile a p in
      let lo, hi = Util.Stats.min_max a in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

(* The input guards raise [Invalid_argument] naming the function and the
   bad value. NaN fails every guard. *)
let invalid name msg f = Alcotest.check_raises name (Invalid_argument msg) f

let rng_bad_bounds () =
  let rng = Util.Rng.create 6 in
  let ignore_f x = ignore (x : float) in
  invalid "float: zero bound" "Rng.float: bound must be positive (got 0)"
    (fun () -> ignore_f (Util.Rng.float rng 0.));
  invalid "float: NaN bound" "Rng.float: bound must be positive (got nan)"
    (fun () -> ignore_f (Util.Rng.float rng Float.nan));
  invalid "float_range: empty range"
    "Rng.float_range: need lo < hi (got [2, 2))" (fun () ->
      ignore_f (Util.Rng.float_range rng 2. 2.));
  invalid "int: negative bound" "Rng.int: bound must be positive (got -3)"
    (fun () -> ignore (Util.Rng.int rng (-3) : int))

let stats_bad_inputs () =
  let ignore_f x = ignore (x : float) in
  invalid "mean of nothing" "Stats.mean: empty array" (fun () ->
      ignore_f (Util.Stats.mean [||]));
  invalid "stddev of nothing" "Stats.stddev: empty array" (fun () ->
      ignore_f (Util.Stats.stddev [||]));
  invalid "min_max of nothing" "Stats.min_max: empty array" (fun () ->
      ignore (Util.Stats.min_max [||] : float * float));
  invalid "percentile of nothing" "Stats.percentile: empty array" (fun () ->
      ignore (Util.Stats.percentile [||] : float -> float));
  invalid "percentile above 1" "Stats.percentile: p must be in [0, 1] (got 1.5)"
    (fun () -> ignore_f (Util.Stats.percentile [| 1.; 2. |] 1.5));
  invalid "percentile at NaN" "Stats.percentile: p must be in [0, 1] (got nan)"
    (fun () -> ignore_f (Util.Stats.percentile [| 1. |] Float.nan));
  invalid "rms_error of different lengths"
    "Stats.rms_error: arrays of different lengths (2 and 1)" (fun () ->
      ignore_f (Util.Stats.rms_error [| 1.; 2. |] [| 1. |]));
  invalid "max_abs_error of nothing" "Stats.max_abs_error: empty array"
    (fun () -> ignore_f (Util.Stats.max_abs_error [||] [||]))

let suite ~property =
  [
    Alcotest.test_case "rng determinism" `Quick rng_deterministic;
    Alcotest.test_case "rng seed sensitivity" `Quick rng_seed_sensitivity;
    Alcotest.test_case "rng float bounds" `Quick rng_float_bounds;
    Alcotest.test_case "rng int bounds" `Quick rng_int_bounds;
    Alcotest.test_case "rng int coverage" `Quick rng_int_coverage;
    Alcotest.test_case "rng gaussian moments" `Quick rng_gaussian_moments;
    Alcotest.test_case "rng rejects bad bounds" `Quick rng_bad_bounds;
    Alcotest.test_case "stats mean/variance" `Quick stats_mean_variance;
    Alcotest.test_case "stats min/max/spread" `Quick stats_min_max_spread;
    Alcotest.test_case "stats percentile" `Quick stats_percentile;
    Alcotest.test_case "stats percentile edges" `Quick stats_percentile_edges;
    Alcotest.test_case "stats percentiles batch" `Quick stats_percentiles_batch;
    Alcotest.test_case "stats errors" `Quick stats_errors;
    Alcotest.test_case "stats rejects bad inputs" `Quick stats_bad_inputs;
    property qcheck_percentile_bounds;
  ]
