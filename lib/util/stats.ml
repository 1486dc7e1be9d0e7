let mean a =
  assert (Array.length a > 0);
  Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let variance a =
  let m = mean a in
  let acc = Array.fold_left (fun s x -> s +. ((x -. m) *. (x -. m))) 0. a in
  acc /. float_of_int (Array.length a)

let stddev a = sqrt (variance a)

let min_max a =
  assert (Array.length a > 0);
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (a.(0), a.(0))
    a

(* Interpolation over an already-sorted array: p = 0 is the minimum,
   p = 1 the maximum, and a singleton returns its only element for any
   p (pos is 0 and the i >= n-1 branch fires). *)
let interp_sorted sorted p =
  assert (p >= 0. && p <= 1.);
  let n = Array.length sorted in
  let pos = p *. float_of_int (n - 1) in
  let i = int_of_float (Float.floor pos) in
  let frac = pos -. float_of_int i in
  if i >= n - 1 then sorted.(n - 1)
  else sorted.(i) +. (frac *. (sorted.(i + 1) -. sorted.(i)))

let percentile a =
  assert (Array.length a > 0);
  let sorted = Array.copy a in
  Array.sort Float.compare sorted;
  interp_sorted sorted

let rms_error a b =
  assert (Array.length a = Array.length b && Array.length a > 0);
  let acc = ref 0. in
  Array.iteri (fun i x -> acc := !acc +. ((x -. b.(i)) *. (x -. b.(i)))) a;
  sqrt (!acc /. float_of_int (Array.length a))

let max_abs_error a b =
  assert (Array.length a = Array.length b && Array.length a > 0);
  let acc = ref 0. in
  Array.iteri (fun i x -> acc := Float.max !acc (Float.abs (x -. b.(i)))) a;
  !acc
