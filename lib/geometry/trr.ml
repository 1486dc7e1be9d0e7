(* Rotated coordinates: u = x + y, v = x - y.
   Manhattan distance in (x,y) equals Chebyshev distance in (u,v).
   Note the inverse map x = (u + v) / 2, y = (u - v) / 2. *)

type t = { ulo : float; uhi : float; vlo : float; vhi : float }

let to_uv (p : Point.t) = (p.x +. p.y, p.x -. p.y)
let of_uv u v : Point.t = { x = (u +. v) /. 2.; y = (u -. v) /. 2. }

let of_point p =
  let u, v = to_uv p in
  { ulo = u; uhi = u; vlo = v; vhi = v }

let of_arc a b =
  let ua, va = to_uv a and ub, vb = to_uv b in
  let du = Float.abs (ua -. ub) and dv = Float.abs (va -. vb) in
  if Float.min du dv > 1e-6 then
    invalid_arg "Trr.of_arc: endpoints not on a common Manhattan arc";
  {
    ulo = Float.min ua ub;
    uhi = Float.max ua ub;
    vlo = Float.min va vb;
    vhi = Float.max va vb;
  }

let inflate t r =
  if not (r >= 0.) then
    invalid_arg
      (Printf.sprintf "Trr.inflate: radius must be non-negative (got %g)" r);
  { ulo = t.ulo -. r; uhi = t.uhi +. r; vlo = t.vlo -. r; vhi = t.vhi +. r }

let intersect a b =
  let ulo = Float.max a.ulo b.ulo
  and uhi = Float.min a.uhi b.uhi
  and vlo = Float.max a.vlo b.vlo
  and vhi = Float.min a.vhi b.vhi in
  if ulo <= uhi +. 1e-12 && vlo <= vhi +. 1e-12 then
    Some
      {
        ulo = Float.min ulo uhi;
        uhi = Float.max ulo uhi;
        vlo = Float.min vlo vhi;
        vhi = Float.max vlo vhi;
      }
  else None

(* Gap between intervals [alo,ahi] and [blo,bhi]; 0 when overlapping. *)
let interval_gap alo ahi blo bhi = Float.max 0. (Float.max (blo -. ahi) (alo -. bhi))

let distance a b =
  Float.max
    (interval_gap a.ulo a.uhi b.ulo b.uhi)
    (interval_gap a.vlo a.vhi b.vlo b.vhi)

let center t = of_uv ((t.ulo +. t.uhi) /. 2.) ((t.vlo +. t.vhi) /. 2.)

let clamp lo hi x = Float.max lo (Float.min hi x)

let closest_point t p =
  let u, v = to_uv p in
  of_uv (clamp t.ulo t.uhi u) (clamp t.vlo t.vhi v)

let core_endpoints t =
  let du = t.uhi -. t.ulo and dv = t.vhi -. t.vlo in
  if du >= dv then
    (* Major extent along u: core runs at the middle v. *)
    let vm = (t.vlo +. t.vhi) /. 2. in
    (of_uv t.ulo vm, of_uv t.uhi vm)
  else
    let um = (t.ulo +. t.uhi) /. 2. in
    (of_uv um t.vlo, of_uv um t.vhi)

let is_arc ?(eps = 1e-6) t = t.uhi -. t.ulo <= eps || t.vhi -. t.vlo <= eps

let contains ?(eps = 1e-9) t p =
  let u, v = to_uv p in
  u >= t.ulo -. eps && u <= t.uhi +. eps && v >= t.vlo -. eps
  && v <= t.vhi +. eps

let sample t a b =
  of_uv (t.ulo +. (a *. (t.uhi -. t.ulo))) (t.vlo +. (b *. (t.vhi -. t.vlo)))
