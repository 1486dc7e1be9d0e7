module Trr = Geometry.Trr

type merged = {
  ms : Trr.t;
  len1 : float;
  len2 : float;
  delay : float;
  cap : float;
}

let wire_elmore (tech : Circuit.Tech.t) ~length ~load =
  let alpha = tech.unit_res and beta = tech.unit_cap in
  alpha *. length *. ((beta *. length /. 2.) +. load)

let snake_length_for_delay (tech : Circuit.Tech.t) ~load ~delay =
  if delay <= 0. then 0.
  else begin
    let alpha = tech.unit_res and beta = tech.unit_cap in
    (* (alpha beta / 2) l^2 + alpha load l - delay = 0 *)
    let a = alpha *. beta /. 2. in
    let b = alpha *. load in
    (-.b +. sqrt ((b *. b) +. (4. *. a *. delay))) /. (2. *. a)
  end

type bounded = {
  bms : Trr.t;
  r_lo : float;
  r_hi : float;
  total_l : float;
  bdelay_min : float;
  bdelay_max : float;
  bcap : float;
}

let slack = 1e-6

let bounded_slice arc1 arc2 ~total_l ~r =
  match
    Trr.intersect
      (Trr.inflate arc1 (r +. slack))
      (Trr.inflate arc2 (total_l -. r +. slack))
  with
  | Some s -> s
  | None -> Trr.of_point (Trr.closest_point arc1 (Trr.center arc2))

let merge_bounded (tech : Circuit.Tech.t) ~skew_bound ~arc1 ~t1_min ~t1_max
    ~c1 ~arc2 ~t2_min ~t2_max ~c2 =
  if not (skew_bound >= 0.) then
    invalid_arg
      (Printf.sprintf
         "Merge_seg.merge_bounded: skew bound must be non-negative (got %g)"
         skew_bound);
  let beta = tech.unit_cap in
  let l = Trr.distance arc1 arc2 in
  (* Merged interval when side 1 gets r of the direct wire. *)
  let interval r =
    let w1 = wire_elmore tech ~length:r ~load:c1 in
    let w2 = wire_elmore tech ~length:(l -. r) ~load:c2 in
    ( Float.min (t1_min +. w1) (t2_min +. w2),
      Float.max (t1_max +. w1) (t2_max +. w2) )
  in
  let width r =
    let lo, hi = interval r in
    hi -. lo
  in
  (* Width is convex piecewise in r; golden-section finds the minimum.
     No merge can squeeze the width below the children's own interval
     widths, so the feasibility budget floors there (plus femtosecond
     numerical slack) — otherwise a zero bound would spuriously snake. *)
  let r_star = if l <= 0. then 0. else Numerics.Roots.golden_min width 0. l in
  let floor_width = Float.max (t1_max -. t1_min) (t2_max -. t2_min) in
  let budget = ((Float.max skew_bound floor_width +. 1e-15) [@cts.unit_ok]) in
  if width r_star <= budget then begin
    (* Direct merge at the width-minimizing tap. The merge region is kept
       a thin (tangent) slice: interval tracking here is decorrelated —
       a region point's two delays are bounded independently — so fat
       regions would compound pessimism across levels and leak skew. The
       budget is still exploited where it matters most: snake avoidance
       (the [budget]-relaxed feasibility above) and looser balancing of
       already-wide child intervals. *)
    let r_lo = r_star and r_hi = r_star in
    let d_min, d_max = interval r_star in
    {
      bms =
        (match
           Trr.intersect
             (Trr.inflate arc1 (r_hi +. slack))
             (Trr.inflate arc2 (l -. r_lo +. slack))
         with
        | Some r -> r
        | None -> Trr.of_point (Trr.closest_point arc1 (Trr.center arc2)));
      r_lo;
      r_hi;
      total_l = l;
      bdelay_min = d_min;
      bdelay_max = d_max;
      bcap = c1 +. c2 +. (beta *. l);
    }
  end
  else begin
    (* Even the best tap exceeds the budget: fall back to exact zero-skew
       snaking on the interval midpoints; the residual interval width is
       the children's own (<= budget by induction). *)
    let t1 = (t1_min +. t1_max) /. 2. and t2 = (t2_min +. t2_max) /. 2. in
    let alpha = tech.unit_res in
    let balanced_x =
      if l <= 0. then if t2 >= t1 then 1. else 0.
      else
        (t2 -. t1 +. (alpha *. l *. (c2 +. (beta *. l /. 2.))))
        /. (alpha *. l *. (c1 +. c2 +. (beta *. l)))
    in
    let len1, len2 =
      if balanced_x > 1. || (l <= 0. && t2 >= t1) then
        (Float.max l (snake_length_for_delay tech ~load:c1 ~delay:(t2 -. t1)), 0.)
      else if balanced_x < 0. || l <= 0. then
        (0., Float.max l (snake_length_for_delay tech ~load:c2 ~delay:(t1 -. t2)))
      else (balanced_x *. l, (1. -. balanced_x) *. l)
    in
    let total_l = len1 +. len2 in
    let mid = t1 +. wire_elmore tech ~length:len1 ~load:c1 in
    let half = floor_width /. 2. in
    {
      bms = bounded_slice arc1 arc2 ~total_l ~r:len1;
      r_lo = len1;
      r_hi = len1;
      total_l;
      bdelay_min = mid -. half;
      bdelay_max = mid +. half;
      bcap = c1 +. c2 +. (beta *. total_l);
    }
  end

let merge (tech : Circuit.Tech.t) ~arc1 ~t1 ~c1 ~arc2 ~t2 ~c2 =
  let alpha = tech.unit_res and beta = tech.unit_cap in
  let l = Trr.distance arc1 arc2 in
  let balanced_x =
    if l <= 0. then if t2 >= t1 then 1. else 0.
    else
      (t2 -. t1 +. (alpha *. l *. (c2 +. (beta *. l /. 2.))))
      /. (alpha *. l *. (c1 +. c2 +. (beta *. l)))
  in
  (* Absolute slack absorbing float noise in the exact-radius
     intersection (micrometres; 1e-6 um is sub-numerical for timing). *)
  let slack = 1e-6 in
  if l > 0. && balanced_x >= 0. && balanced_x <= 1. then begin
    let len1 = balanced_x *. l in
    let len2 = l -. len1 in
    let ms =
      match
        Trr.intersect
          (Trr.inflate arc1 (len1 +. slack))
          (Trr.inflate arc2 (len2 +. slack))
      with
      | Some r -> r
      | None ->
          (* Cannot happen: len1 + len2 = distance(arc1, arc2). *)
          assert false
    in
    {
      ms;
      len1;
      len2;
      delay = t1 +. wire_elmore tech ~length:len1 ~load:c1;
      cap = c1 +. c2 +. (beta *. l);
    }
  end
  else if balanced_x > 1. || (l <= 0. && t2 >= t1) then begin
    (* Side 2 is slower even with all wire on its side: tap on arc2 —
       restricted to the part of arc2 reachable from arc1 within the
       snaked length — and snake the wire toward side 1. *)
    let len1 = snake_length_for_delay tech ~load:c1 ~delay:(t2 -. t1) in
    let len1 = Float.max len1 l in
    let ms =
      match Trr.intersect arc2 (Trr.inflate arc1 (len1 +. slack)) with
      | Some r -> r
      | None -> Trr.of_point (Trr.closest_point arc2 (Trr.center arc1))
    in
    {
      ms;
      len1;
      len2 = 0.;
      delay = t2;
      cap = c1 +. c2 +. (beta *. len1);
    }
  end
  else begin
    let len2 = snake_length_for_delay tech ~load:c2 ~delay:(t1 -. t2) in
    let len2 = Float.max len2 l in
    let ms =
      match Trr.intersect arc1 (Trr.inflate arc2 (len2 +. slack)) with
      | Some r -> r
      | None -> Trr.of_point (Trr.closest_point arc1 (Trr.center arc2))
    in
    {
      ms;
      len1 = 0.;
      len2;
      delay = t1;
      cap = c1 +. c2 +. (beta *. len2);
    }
  end
