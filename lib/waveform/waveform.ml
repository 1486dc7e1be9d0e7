type t = { ts : float array; vs : float array }

let make ts vs =
  let n = Array.length ts in
  if n = 0 || n <> Array.length vs then
    invalid_arg "Waveform.make: empty or mismatched arrays";
  for i = 1 to n - 1 do
    if not (ts.(i) > ts.(i - 1)) (* rejects NaN too *) then
      invalid_arg "Waveform.make: times not strictly increasing"
  done;
  { ts; vs }

let n_samples w = Array.length w.ts
let times w = Array.copy w.ts
let values w = Array.copy w.vs
let t_start w = w.ts.(0)
let t_end w = w.ts.(Array.length w.ts - 1)
let final_value w = w.vs.(Array.length w.vs - 1)

(* Largest index i with ts.(i) <= t, by binary search. *)
let locate w t =
  let n = Array.length w.ts in
  let rec go lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if w.ts.(mid) <= t then go mid hi else go lo mid
  in
  if t < w.ts.(0) then -1 else if t >= w.ts.(n - 1) then n - 1 else go 0 (n - 1)

(* [i]: the largest index with [ts.(i) <= t], or -1. Inlined, unboxed. *)
let[@inline] interpolate ts vs i t =
  let n = Array.length ts in
  if i < 0 then vs.(0)
  else if i >= n - 1 then vs.(n - 1)
  else
    let f = (t -. ts.(i)) /. (ts.(i + 1) -. ts.(i)) in
    vs.(i) +. (f *. (vs.(i + 1) -. vs.(i)))

let value_at w t = interpolate w.ts w.vs (locate w t) t

type sample = { mutable time : float; mutable value : float }
type cursor = { w : t; mutable i : int }

let cursor w = { w; i = -1 }

let read c s =
  let ts = c.w.ts and t = s.time in
  (* Times strictly increase, so walking forward finds [locate]'s index. *)
  while c.i + 1 < Array.length ts && ts.(c.i + 1) <= t do
    c.i <- c.i + 1
  done;
  s.value <- interpolate ts c.w.vs c.i t

let crossing w level =
  let n = Array.length w.ts in
  if w.vs.(0) >= level then Some w.ts.(0)
  else
    let rec go i =
      if i >= n then None
      else if w.vs.(i) >= level then
        let v0 = w.vs.(i - 1) and v1 = w.vs.(i) in
        let f = if v1 = v0 then 0. else (level -. v0) /. (v1 -. v0) in
        Some (w.ts.(i - 1) +. (f *. (w.ts.(i) -. w.ts.(i - 1))))
      else go (i + 1)
    in
    go 1

let slew_10_90 w ~vdd =
  match (crossing w (0.1 *. vdd), crossing w (0.9 *. vdd)) with
  | Some t10, Some t90 -> Some (t90 -. t10)
  | _, _ -> None

let delay_50 a b ~vdd =
  match (crossing a (0.5 *. vdd), crossing b (0.5 *. vdd)) with
  | Some ta, Some tb -> Some (tb -. ta)
  | _, _ -> None

let shift w dt = { ts = Array.map (fun t -> t +. dt) w.ts; vs = Array.copy w.vs }

let crop_before w t =
  let i = locate w t in
  if i <= 0 then w
  else
    let n = Array.length w.ts in
    { ts = Array.sub w.ts i (n - i); vs = Array.sub w.vs i (n - i) }

let ramp ?(t0 = 0.) ~vdd ~slew () =
  (* A 0 -> vdd linear ramp of duration T has 10-90 slew 0.8 T. *)
  let duration = slew /. 0.8 in
  make
    [| t0 -. (0.05 *. duration); t0; t0 +. duration; t0 +. (1.05 *. duration) |]
    [| 0.; 0.; vdd; vdd |]

let smooth_curve ?(t0 = 0.) ~vdd ~slew () =
  (* Raised cosine v(t) = vdd/2 * (1 - cos (pi t / T)) on [0, T].
     Its 10-90 rise time is T * (acos(-0.8) - acos(0.8)) / pi; scale T so
     the requested slew is met exactly. *)
  let frac = (Float.acos (-0.8) -. Float.acos 0.8) /. Float.pi in
  let duration = slew /. frac in
  let n = 64 in
  let ts =
    Array.init (n + 2) (fun i ->
        if i = 0 then t0 -. (0.05 *. duration)
        else t0 +. (float_of_int (i - 1) /. float_of_int n *. duration))
  in
  let vs =
    Array.init (n + 2) (fun i ->
        if i = 0 then 0.
        else
          let x = float_of_int (i - 1) /. float_of_int n in
          vdd /. 2. *. (1. -. Float.cos (Float.pi *. x)))
  in
  make ts vs

let is_complete_rise w ~vdd =
  w.vs.(0) <= 0.1 *. vdd && final_value w >= 0.9 *. vdd
