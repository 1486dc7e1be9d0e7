(* Input guards name the function and the bad value. *)
let non_empty who a =
  if Array.length a = 0 then invalid_arg (who ^ ": empty array")

let same_length who a b =
  if Array.length a <> Array.length b then
    invalid_arg
      (Printf.sprintf "%s: arrays of different lengths (%d and %d)" who
         (Array.length a) (Array.length b));
  non_empty who a

let mean a =
  non_empty "Stats.mean" a;
  Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let variance a =
  let m = mean a in
  let acc = Array.fold_left (fun s x -> s +. ((x -. m) *. (x -. m))) 0. a in
  acc /. float_of_int (Array.length a)

let stddev a =
  non_empty "Stats.stddev" a;
  sqrt (variance a)

let min_max a =
  non_empty "Stats.min_max" a;
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (a.(0), a.(0))
    a

(* Interpolation over an already-sorted array: p = 0 is the minimum,
   p = 1 the maximum, and a singleton returns its only element for any
   p (pos is 0 and the i >= n-1 branch fires). *)
let interp_sorted sorted p =
  if not (p >= 0. && p <= 1.) then
    invalid_arg
      (Printf.sprintf "Stats.percentile: p must be in [0, 1] (got %g)" p);
  let n = Array.length sorted in
  let pos = p *. float_of_int (n - 1) in
  let i = int_of_float (Float.floor pos) in
  let frac = pos -. float_of_int i in
  if i >= n - 1 then sorted.(n - 1)
  else sorted.(i) +. (frac *. (sorted.(i + 1) -. sorted.(i)))

let percentile a =
  non_empty "Stats.percentile" a;
  let sorted = Array.copy a in
  Array.sort Float.compare sorted;
  interp_sorted sorted

let rms_error a b =
  same_length "Stats.rms_error" a b;
  let acc = ref 0. in
  Array.iteri (fun i x -> acc := !acc +. ((x -. b.(i)) *. (x -. b.(i)))) a;
  sqrt (!acc /. float_of_int (Array.length a))

let max_abs_error a b =
  same_length "Stats.max_abs_error" a b;
  let acc = ref 0. in
  Array.iteri (fun i x -> acc := Float.max !acc (Float.abs (x -. b.(i)))) a;
  !acc
