type t = { r : int; c : int; a : float array }

let create r c =
  if r <= 0 || c <= 0 then invalid_arg "Matrix.create";
  { r; c; a = Array.make (r * c) 0. }

let rows m = m.r
let cols m = m.c
let get m i j = m.a.((i * m.c) + j)
let set m i j v = m.a.((i * m.c) + j) <- v

let of_arrays rows_arr =
  let r = Array.length rows_arr in
  if r = 0 then invalid_arg "Matrix.of_arrays: no rows";
  let c = Array.length rows_arr.(0) in
  let m = create r c in
  Array.iteri
    (fun i row ->
      if Array.length row <> c then invalid_arg "Matrix.of_arrays: ragged";
      Array.iteri (fun j v -> set m i j v) row)
    rows_arr;
  m

let copy m = { m with a = Array.copy m.a }

let identity n =
  let m = create n n in
  for i = 0 to n - 1 do
    set m i i 1.
  done;
  m

(* [transpose], [mul], [mul_vec] and [solve] index the flat arrays directly:
   [get]/[set] are compiled as calls, each boxing the float it passes. *)
let transpose m =
  let t = create m.c m.r in
  let a = m.a and ta = t.a in
  for i = 0 to m.r - 1 do
    for j = 0 to m.c - 1 do
      ta.((j * m.r) + i) <- a.((i * m.c) + j)
    done
  done;
  t

let mul a b =
  if a.c <> b.r then invalid_arg "Matrix.mul: dimension mismatch";
  let m = create a.r b.c in
  let aa = a.a and ba = b.a and ma = m.a and n = b.c in
  for i = 0 to a.r - 1 do
    for k = 0 to a.c - 1 do
      let aik = aa.((i * a.c) + k) in
      (* Exact: skipping true zeros is a sparsity fast path, not a
         tolerance decision. *)
      if (aik <> 0.) [@cts.float_eq_ok] then
        for j = 0 to n - 1 do
          ma.((i * n) + j) <- ma.((i * n) + j) +. (aik *. ba.((k * n) + j))
        done
    done
  done;
  m

let mul_vec a v =
  if a.c <> Array.length v then invalid_arg "Matrix.mul_vec: dimension mismatch";
  let out = Array.make a.r 0. in
  for i = 0 to a.r - 1 do
    let acc = ref 0. in
    for j = 0 to a.c - 1 do
      acc := !acc +. (a.a.((i * a.c) + j) *. v.(j))
    done;
    out.(i) <- !acc
  done;
  out

let solve a0 b0 =
  if a0.r <> a0.c then invalid_arg "Matrix.solve: not square";
  if a0.r <> Array.length b0 then invalid_arg "Matrix.solve: rhs size";
  let n = a0.r in
  let a = Array.copy a0.a and b = Array.copy b0 in
  for col = 0 to n - 1 do
    (* Partial pivoting. *)
    let piv = ref col in
    for i = col + 1 to n - 1 do
      if Float.abs a.((i * n) + col) > Float.abs a.((!piv * n) + col) then
        piv := i
    done;
    let p = !piv in
    if Float.abs a.((p * n) + col) < 1e-300 then
      failwith "Matrix.solve: singular matrix";
    if p <> col then begin
      for j = 0 to n - 1 do
        let t = a.((col * n) + j) in
        a.((col * n) + j) <- a.((p * n) + j);
        a.((p * n) + j) <- t
      done;
      let t = b.(col) in
      b.(col) <- b.(p);
      b.(p) <- t
    end;
    let d = a.((col * n) + col) in
    for i = col + 1 to n - 1 do
      let f = a.((i * n) + col) /. d in
      if (f <> 0.) [@cts.float_eq_ok] then begin
        for j = col to n - 1 do
          a.((i * n) + j) <- a.((i * n) + j) -. (f *. a.((col * n) + j))
        done;
        b.(i) <- b.(i) -. (f *. b.(col))
      end
    done
  done;
  let x = Array.make n 0. in
  for i = n - 1 downto 0 do
    let acc = ref b.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (a.((i * n) + j) *. x.(j))
    done;
    x.(i) <- !acc /. a.((i * n) + i)
  done;
  x

let lstsq a b =
  if a.r <> Array.length b then invalid_arg "Matrix.lstsq: rhs size";
  let at = transpose a in
  let ata = mul at a in
  let n = ata.r in
  for i = 0 to n - 1 do
    set ata i i (get ata i i +. 1e-12)
  done;
  let atb = mul_vec at b in
  solve ata atb
