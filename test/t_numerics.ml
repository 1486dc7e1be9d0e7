(* Tests for the numerics library: linear algebra, polynomial surface
   fitting, root finding. *)

module M = Numerics.Matrix
module Polyfit = Numerics.Polyfit
module Roots = Numerics.Roots

let check_f eps = Alcotest.(check (float eps))

let matrix_solve_identity () =
  let a = M.identity 4 in
  let b = [| 1.; 2.; 3.; 4. |] in
  Alcotest.(check (array (float 1e-12))) "identity solve" b (M.solve a b)

let matrix_solve_2x2 () =
  let a = M.of_arrays [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let x = M.solve a [| 5.; 10. |] in
  check_f 1e-9 "x0" 1. x.(0);
  check_f 1e-9 "x1" 3. x.(1)

let matrix_solve_pivoting () =
  (* Zero on the initial pivot forces a row swap. *)
  let a = M.of_arrays [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let x = M.solve a [| 2.; 3. |] in
  check_f 1e-12 "x0" 3. x.(0);
  check_f 1e-12 "x1" 2. x.(1)

let matrix_solve_singular () =
  let a = M.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  Alcotest.check_raises "singular" (Failure "Matrix.solve: singular matrix")
    (fun () -> ignore (M.solve a [| 1.; 1. |]))

let matrix_solve_random_roundtrip () =
  let rng = Util.Rng.create 77 in
  for _ = 1 to 20 do
    let n = 1 + Util.Rng.int rng 8 in
    let a = M.create n n in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        M.set a i j (Util.Rng.float_range rng (-1.) 1.)
      done;
      (* Diagonal dominance keeps the random systems well conditioned. *)
      M.set a i i (M.get a i i +. 4.)
    done;
    let x_true = Array.init n (fun _ -> Util.Rng.float_range rng (-5.) 5.) in
    let b = M.mul_vec a x_true in
    let x = M.solve a b in
    Array.iteri
      (fun i v -> check_f 1e-8 (Printf.sprintf "x%d" i) x_true.(i) v)
      x
  done

let matrix_transpose_mul () =
  let a = M.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |]; [| 5.; 6. |] |] in
  let at = M.transpose a in
  Alcotest.(check int) "rows" 2 (M.rows at);
  Alcotest.(check int) "cols" 3 (M.cols at);
  let ata = M.mul at a in
  check_f 1e-12 "ata[0,0]" 35. (M.get ata 0 0);
  check_f 1e-12 "ata[0,1]" 44. (M.get ata 0 1);
  check_f 1e-12 "ata[1,1]" 56. (M.get ata 1 1)

let lstsq_line_fit () =
  (* Overdetermined y = 2x + 1. *)
  let xs = [| 0.; 1.; 2.; 3.; 4. |] in
  let design = M.create 5 2 in
  Array.iteri
    (fun i x ->
      M.set design i 0 1.;
      M.set design i 1 x)
    xs;
  let ys = Array.map (fun x -> (2. *. x) +. 1.) xs in
  let c = M.lstsq design ys in
  check_f 1e-6 "intercept" 1. c.(0);
  check_f 1e-6 "slope" 2. c.(1)

let polyfit_term_counts () =
  Alcotest.(check int) "deg2 2var" 6 (Polyfit.n_terms2 2);
  Alcotest.(check int) "deg3 2var" 10 (Polyfit.n_terms2 3);
  Alcotest.(check int) "deg4 2var" 15 (Polyfit.n_terms2 4);
  Alcotest.(check int) "deg2 3var" 10 (Polyfit.n_terms3 2);
  Alcotest.(check int) "deg3 3var" 20 (Polyfit.n_terms3 3)

let polyfit2_exact_recovery () =
  (* A degree-2 polynomial must be recovered exactly by a degree-2 fit. *)
  let f x y = 3. +. (2. *. x) -. (1.5 *. y) +. (0.5 *. x *. y) +. (x *. x) in
  let pts = ref [] in
  for i = 0 to 5 do
    for j = 0 to 5 do
      pts := (float_of_int i, float_of_int j *. 2.) :: !pts
    done
  done;
  let pts = Array.of_list !pts in
  let zs = Array.map (fun (x, y) -> f x y) pts in
  let s = Polyfit.fit2 ~degree:2 pts zs in
  List.iter
    (fun (x, y) ->
      check_f 1e-6 (Printf.sprintf "f(%g,%g)" x y) (f x y) (Polyfit.eval2 s x y))
    [ (0.5, 1.3); (3.7, 9.1); (5., 0.); (2.2, 4.4) ]

let polyfit3_exact_recovery () =
  let f x y z = 1. +. x -. (2. *. y) +. (3. *. z) +. (x *. z) -. (y *. y) in
  let pts = ref [] in
  for i = 0 to 3 do
    for j = 0 to 3 do
      for k = 0 to 3 do
        pts := (float_of_int i, float_of_int j, float_of_int k) :: !pts
      done
    done
  done;
  let pts = Array.of_list !pts in
  let zs = Array.map (fun (x, y, z) -> f x y z) pts in
  let s = Polyfit.fit3 ~degree:2 pts zs in
  List.iter
    (fun (x, y, z) ->
      check_f 1e-6 "recovered" (f x y z) (Polyfit.eval3 s x y z))
    [ (0.5, 1.5, 2.5); (3., 0., 1.); (1.1, 2.2, 0.3) ]

let polyfit2_underdetermined () =
  let pts = [| (0., 0.); (1., 1.) |] in
  Alcotest.check_raises "underdetermined"
    (Invalid_argument "Polyfit.fit2: underdetermined") (fun () ->
      ignore (Polyfit.fit2 ~degree:2 pts [| 0.; 1. |]))

let polyfit2_serialization_roundtrip () =
  let pts = ref [] in
  for i = 0 to 4 do
    for j = 0 to 4 do
      pts := (float_of_int i *. 3., float_of_int j *. 7.) :: !pts
    done
  done;
  let pts = Array.of_list !pts in
  let zs = Array.map (fun (x, y) -> (x *. y) +. (2. *. x) -. y) pts in
  let s = Polyfit.fit2 ~degree:3 pts zs in
  let s' = Polyfit.surface2_of_string (Polyfit.surface2_to_string s) in
  List.iter
    (fun (x, y) ->
      check_f 1e-12 "roundtrip eval" (Polyfit.eval2 s x y) (Polyfit.eval2 s' x y))
    [ (1.7, 12.3); (0., 0.); (12., 28.) ]

let polyfit3_serialization_roundtrip () =
  let pts = ref [] in
  for i = 0 to 3 do
    for j = 0 to 3 do
      for k = 0 to 3 do
        pts := (float_of_int i, float_of_int j, float_of_int k) :: !pts
      done
    done
  done;
  let pts = Array.of_list !pts in
  let zs = Array.map (fun (x, y, z) -> x +. (y *. z)) pts in
  let s = Polyfit.fit3 ~degree:2 pts zs in
  let s' = Polyfit.surface3_of_string (Polyfit.surface3_to_string s) in
  check_f 1e-12 "roundtrip" (Polyfit.eval3 s 1.5 2.5 0.5)
    (Polyfit.eval3 s' 1.5 2.5 0.5)

let bisect_basic () =
  let root = Roots.bisect (fun x -> (x *. x) -. 2.) 0. 2. in
  check_f 1e-9 "sqrt 2" (sqrt 2.) root

let bisect_endpoint_root () =
  check_f 1e-12 "lo endpoint" 0. (Roots.bisect (fun x -> x) 0. 1.);
  check_f 1e-12 "hi endpoint" 1. (Roots.bisect (fun x -> x -. 1.) 0. 1.)

let bisect_no_sign_change () =
  Alcotest.check_raises "no sign change"
    (Invalid_argument "Roots.bisect: no sign change on interval") (fun () ->
      ignore (Roots.bisect (fun x -> (x *. x) +. 1.) 0. 1.))

let golden_min_quadratic () =
  let x = Roots.golden_min (fun x -> (x -. 3.) ** 2.) 0. 10. in
  check_f 1e-6 "argmin" 3. x

(* ---------------- zero-allocation eval bit-identity ---------------- *)

(* Reference oracle for the cached-powers eval loops: walk the exponent
   table with pow-products exactly as the pre-flattening implementation
   did, with the surface internals recovered through the exact (%.17g)
   serialization. [eval2]/[eval3] must match bit for bit — same term
   values, same summation order — not merely to a tolerance. *)
let pow x n =
  let rec go acc n = if n = 0 then acc else go (acc *. x) (n - 1) in
  go 1. n

let reference_eval2 s x y =
  match
    String.split_on_char ' ' (String.trim (Polyfit.surface2_to_string s))
  with
  | _d :: cx :: hx :: cy :: hy :: rest ->
      let f = float_of_string in
      let coefs = Array.of_list (List.map f rest) in
      let exps = Polyfit.exponent_table2 s in
      let xn = (x -. f cx) /. f hx and yn = (y -. f cy) /. f hy in
      let acc = ref 0. in
      Array.iteri
        (fun c coef ->
          acc :=
            !acc +. (coef *. pow xn exps.(2 * c) *. pow yn exps.((2 * c) + 1)))
        coefs;
      !acc
  | _ -> assert false

let reference_eval3 s x y z =
  match
    String.split_on_char ' ' (String.trim (Polyfit.surface3_to_string s))
  with
  | _d :: cx :: hx :: cy :: hy :: cz :: hz :: rest ->
      let f = float_of_string in
      let coefs = Array.of_list (List.map f rest) in
      let exps = Polyfit.exponent_table3 s in
      let xn = (x -. f cx) /. f hx
      and yn = (y -. f cy) /. f hy
      and zn = (z -. f cz) /. f hz in
      let acc = ref 0. in
      Array.iteri
        (fun c coef ->
          acc :=
            !acc
            +. (coef *. pow xn exps.(3 * c)
               *. pow yn exps.((3 * c) + 1)
               *. pow zn exps.((3 * c) + 2)))
        coefs;
      !acc
  | _ -> assert false

let bits_equal a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let qcheck_eval2_bit_identical =
  QCheck.Test.make ~name:"eval2 bit-identical to exponent-table walk"
    ~count:200
    QCheck.(
      triple (int_range 1 4) (float_range (-10.) 10.) (float_range (-10.) 10.))
    (fun (degree, x, y) ->
      let n = 7 in
      let pts =
        Array.init (n * n) (fun i ->
            (float_of_int (i / n) /. 2., float_of_int (i mod n) /. 3.))
      in
      let zs =
        Array.map
          (fun (a, b) -> sin ((2. *. a) +. (3. *. b) +. float_of_int degree))
          pts
      in
      let s = Polyfit.fit2 ~degree pts zs in
      bits_equal (Polyfit.eval2 s x y) (reference_eval2 s x y))

let qcheck_eval3_bit_identical =
  QCheck.Test.make ~name:"eval3 bit-identical to exponent-table walk"
    ~count:200
    QCheck.(
      pair (int_range 1 3)
        (triple (float_range (-10.) 10.) (float_range (-10.) 10.)
           (float_range (-10.) 10.)))
    (fun (degree, (x, y, z)) ->
      let n = 4 in
      let pts =
        Array.init (n * n * n) (fun i ->
            ( float_of_int (i / (n * n)) /. 2.,
              float_of_int (i / n mod n) /. 3.,
              float_of_int (i mod n) /. 4. ))
      in
      let zs =
        Array.map
          (fun (a, b, c) ->
            sin ((2. *. a) +. (3. *. b) -. c +. float_of_int degree))
          pts
      in
      let s = Polyfit.fit3 ~degree pts zs in
      bits_equal (Polyfit.eval3 s x y z) (reference_eval3 s x y z))

(* -------------------- non-finite sample rejection ------------------ *)

let polyfit_rejects_non_finite () =
  let pts = [| (0., 0.); (1., 0.); (0., 1.); (1., 1.); (2., 2.); (nan, 0.) |] in
  (match Polyfit.fit2 ~degree:1 pts (Array.make 6 1.) with
  | _ -> Alcotest.fail "fit2 accepted a NaN coordinate"
  | exception Invalid_argument _ -> ());
  let pts = [| (0., 0.); (1., 0.); (0., 1.) |] in
  (match Polyfit.fit2 ~degree:1 pts [| 0.; infinity; 1. |] with
  | _ -> Alcotest.fail "fit2 accepted an infinite value"
  | exception Invalid_argument _ -> ());
  let pts3 =
    [| (0., 0., 0.); (1., 0., 0.); (0., 1., 0.); (0., 0., neg_infinity) |]
  in
  match Polyfit.fit3 ~degree:1 pts3 [| 0.; 1.; 2.; 3. |] with
  | _ -> Alcotest.fail "fit3 accepted an infinite coordinate"
  | exception Invalid_argument _ -> ()

let qcheck_bisect_finds_root =
  QCheck.Test.make ~name:"bisect solves monotone cubic" ~count:200
    QCheck.(float_range 0.1 50.)
    (fun target ->
      let f x = (x *. x *. x) +. x -. target in
      let root = Roots.bisect f 0. 10. in
      Float.abs (f root) < 1e-6 *. (1. +. target))

(* [Matrix.mul], [transpose] and [mul_vec] against copies of the
   per-element [get]/[set] versions they replaced, in Int64 bits, on
   random shapes whose entries are a third exact zeros (the skip). *)
module Elementwise = struct
  let transpose m =
    let t = M.create (M.cols m) (M.rows m) in
    for i = 0 to M.rows m - 1 do
      for j = 0 to M.cols m - 1 do
        M.set t j i (M.get m i j)
      done
    done;
    t

  let mul a b =
    let m = M.create (M.rows a) (M.cols b) in
    for i = 0 to M.rows a - 1 do
      for k = 0 to M.cols a - 1 do
        let aik = M.get a i k in
        if (aik <> 0.) [@cts.float_eq_ok] then
          for j = 0 to M.cols b - 1 do
            M.set m i j (M.get m i j +. (aik *. M.get b k j))
          done
      done
    done;
    m

  let mul_vec a v =
    Array.init (M.rows a) (fun i ->
        let acc = ref 0. in
        for j = 0 to M.cols a - 1 do
          acc := !acc +. (M.get a i j *. v.(j))
        done;
        !acc)

  let solve a0 b0 =
    let n = M.rows a0 in
    let a = M.copy a0 and b = Array.copy b0 in
    for col = 0 to n - 1 do
      let piv = ref col in
      for i = col + 1 to n - 1 do
        if Float.abs (M.get a i col) > Float.abs (M.get a !piv col) then
          piv := i
      done;
      if Float.abs (M.get a !piv col) < 1e-300 then
        failwith "Matrix.solve: singular matrix";
      if !piv <> col then begin
        for j = 0 to n - 1 do
          let t = M.get a col j in
          M.set a col j (M.get a !piv j);
          M.set a !piv j t
        done;
        let t = b.(col) in
        b.(col) <- b.(!piv);
        b.(!piv) <- t
      end;
      let d = M.get a col col in
      for i = col + 1 to n - 1 do
        let f = M.get a i col /. d in
        if (f <> 0.) [@cts.float_eq_ok] then begin
          for j = col to n - 1 do
            M.set a i j (M.get a i j -. (f *. M.get a col j))
          done;
          b.(i) <- b.(i) -. (f *. b.(col))
        end
      done
    done;
    let x = Array.make n 0. in
    for i = n - 1 downto 0 do
      let acc = ref b.(i) in
      for j = i + 1 to n - 1 do
        acc := !acc -. (M.get a i j *. x.(j))
      done;
      x.(i) <- !acc /. M.get a i i
    done;
    x
end

let qcheck_matrix_products_bit_identical =
  QCheck.Test.make ~count:300
    ~name:"Matrix mul/transpose/mul_vec bit-identical to the per-element loops"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let entry () =
        if Util.Rng.int rng 3 = 0 then 0. else Util.Rng.float_range rng (-1e3) 1e3
      in
      let r = 1 + Util.Rng.int rng 12
      and c = 1 + Util.Rng.int rng 12
      and q = 1 + Util.Rng.int rng 12 in
      let a = M.of_arrays (Array.init r (fun _ -> Array.init c (fun _ -> entry ()))) in
      let b = M.of_arrays (Array.init c (fun _ -> Array.init q (fun _ -> entry ()))) in
      let v = Array.init c (fun _ -> entry ()) in
      let bits m =
        Array.init (M.rows m * M.cols m) (fun x ->
            Int64.bits_of_float (M.get m (x / M.cols m) (x mod M.cols m)))
      in
      let same x y = M.rows x = M.rows y && M.cols x = M.cols y && bits x = bits y in
      same (M.mul a b) (Elementwise.mul a b)
      && same (M.transpose a) (Elementwise.transpose a)
      && Array.map Int64.bits_of_float (M.mul_vec a v)
         = Array.map Int64.bits_of_float (Elementwise.mul_vec a v))

(* [Matrix.solve] against the per-element copy above, in Int64 bits.
   Half the systems are diagonally dominant (no row swap), the rest are
   random (swaps). A third of the entries are exact zeros (the skip),
   small integers in some systems tie pivot candidates (the strict [>]),
   and a singular system must fail the same way in both. *)
let qcheck_solve_bit_identical =
  QCheck.Test.make ~count:500
    ~name:"Matrix.solve bit-identical to the per-element elimination"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let n = 1 + Util.Rng.int rng 10 in
      let dominant = Util.Rng.int rng 2 = 0 in
      let integers = Util.Rng.int rng 3 = 0 in
      let entry () =
        if Util.Rng.int rng 3 = 0 then 0.
        else if integers then float_of_int (Util.Rng.int rng 7 - 3)
        else Util.Rng.float_range rng (-1e3) 1e3
      in
      let rows =
        Array.init n (fun i ->
            Array.init n (fun j ->
                if dominant && i = j then 1e5 +. Util.Rng.float rng 1e3
                else entry ()))
      in
      let a = M.of_arrays rows in
      let b = Array.init n (fun _ -> entry ()) in
      let run solve =
        match solve a b with
        | x -> Ok (Array.map Int64.bits_of_float x)
        | exception Failure m -> Error m
      in
      let got = run M.solve in
      got = run Elementwise.solve
      && Array.for_all2 (fun x y -> x = y) (Array.concat (Array.to_list rows))
           (Array.init (n * n) (fun k -> M.get a (k / n) (k mod n))))

(* The pre-[bisect_with] [Roots.bisect], which evaluated both ends
   itself. *)
let reference_bisect ?(tol = 1e-12) ?(max_iter = 200) f lo hi =
  let flo = f lo and fhi = f hi in
  if (flo = 0.) [@cts.float_eq_ok] then lo
  else if (fhi = 0.) [@cts.float_eq_ok] then hi
  else if flo *. fhi > 0. then
    invalid_arg "Roots.bisect: no sign change on interval"
  else
    let rec go lo hi flo iter =
      let mid = (lo +. hi) /. 2. in
      if hi -. lo <= tol || iter >= max_iter then mid
      else
        let fmid = f mid in
        if (fmid = 0.) [@cts.float_eq_ok] then mid
        else if flo *. fmid < 0. then go lo mid flo (iter + 1)
        else go mid hi fmid (iter + 1)
    in
    go lo hi flo 0

(* [bisect] and [bisect_with] against the reference in Int64 bits, on
   steps and lines whose root may sit exactly on an end or on a
   bisection midpoint (dyadic roots), and on brackets with no sign
   change. [bisect_with] must not evaluate either end. *)
let qcheck_bisect_with_bit_identical =
  QCheck.Test.make ~count:1000
    ~name:"bisect and bisect_with bit-identical to the two-end reference"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let lo = float_of_int (Util.Rng.int rng 5 - 2) in
      let hi = lo +. float_of_int (1 + Util.Rng.int rng 4) in
      let root =
        match Util.Rng.int rng 4 with
        | 0 -> lo
        | 1 -> hi
        | 2 -> lo +. ((hi -. lo) *. float_of_int (Util.Rng.int rng 9) /. 8.)
        | _ -> Util.Rng.float_range rng (lo -. 1.) (hi +. 1.)
      in
      let slope = Util.Rng.float_range rng (-3.) 3. in
      let f x = slope *. (x -. root) in
      let tol = [| 1e-12; 1e-3; 0.5 |].(Util.Rng.int rng 3) in
      let max_iter = [| 200; 5 |].(Util.Rng.int rng 2) in
      let outcome g =
        match g () with
        | r -> Ok (Int64.bits_of_float r)
        | exception Invalid_argument m -> Error m
      in
      let at_end x = (x = lo || x = hi) [@cts.float_eq_ok] in
      let f_inner x =
        if at_end x then failwith "bisect_with evaluated an end";
        f x
      in
      let want = outcome (fun () -> reference_bisect ~tol ~max_iter f lo hi) in
      want = outcome (fun () -> Roots.bisect ~tol ~max_iter f lo hi)
      && want
         = outcome (fun () ->
               Roots.bisect_with ~tol ~max_iter ~flo:(f lo) ~fhi:(f hi)
                 f_inner lo hi))

let suite =
  [
    Alcotest.test_case "solve identity" `Quick matrix_solve_identity;
    Alcotest.test_case "solve 2x2" `Quick matrix_solve_2x2;
    Alcotest.test_case "solve pivoting" `Quick matrix_solve_pivoting;
    Alcotest.test_case "solve singular" `Quick matrix_solve_singular;
    Alcotest.test_case "solve random roundtrip" `Quick
      matrix_solve_random_roundtrip;
    Alcotest.test_case "transpose/mul" `Quick matrix_transpose_mul;
    Alcotest.test_case "lstsq line" `Quick lstsq_line_fit;
    Alcotest.test_case "polyfit term counts" `Quick polyfit_term_counts;
    Alcotest.test_case "polyfit2 exact recovery" `Quick polyfit2_exact_recovery;
    Alcotest.test_case "polyfit3 exact recovery" `Quick polyfit3_exact_recovery;
    Alcotest.test_case "polyfit2 underdetermined" `Quick
      polyfit2_underdetermined;
    Alcotest.test_case "polyfit2 serialization" `Quick
      polyfit2_serialization_roundtrip;
    Alcotest.test_case "polyfit3 serialization" `Quick
      polyfit3_serialization_roundtrip;
    Alcotest.test_case "bisect basic" `Quick bisect_basic;
    Alcotest.test_case "bisect endpoints" `Quick bisect_endpoint_root;
    Alcotest.test_case "bisect no sign change" `Quick bisect_no_sign_change;
    Alcotest.test_case "golden min" `Quick golden_min_quadratic;
    Alcotest.test_case "polyfit rejects non-finite samples" `Quick
      polyfit_rejects_non_finite;
    QCheck_alcotest.to_alcotest qcheck_matrix_products_bit_identical;
    QCheck_alcotest.to_alcotest qcheck_eval2_bit_identical;
    QCheck_alcotest.to_alcotest qcheck_eval3_bit_identical;
    QCheck_alcotest.to_alcotest qcheck_bisect_finds_root;
    QCheck_alcotest.to_alcotest qcheck_solve_bit_identical;
    QCheck_alcotest.to_alcotest qcheck_bisect_with_bit_identical;
  ]
