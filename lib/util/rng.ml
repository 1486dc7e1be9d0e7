type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* SplitMix64 output function (Steele, Lea, Flood 2014). *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let float t bound =
  if not (bound > 0.) then
    invalid_arg
      (Printf.sprintf "Rng.float: bound must be positive (got %g)" bound);
  let bits = Int64.shift_right_logical (int64 t) 11 in
  (* 53 random bits scaled to [0,1). *)
  let unit = Int64.to_float bits *. 0x1.0p-53 in
  unit *. bound

let float_range t lo hi =
  if not (lo < hi) then
    invalid_arg
      (Printf.sprintf "Rng.float_range: need lo < hi (got [%g, %g))" lo hi);
  lo +. float t (hi -. lo)

let int t bound =
  if bound <= 0 then
    invalid_arg
      (Printf.sprintf "Rng.int: bound must be positive (got %d)" bound);
  let bits = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  bits mod bound

let bool t = Int64.logand (int64 t) 1L = 1L

let gaussian t =
  let u1 = float t 1. +. 1e-300 in
  let u2 = float t 1. in
  sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)
