let bisect_with ?(tol = 1e-12) ?(max_iter = 200) ~flo ~fhi f lo hi =
  (* Exact zero tests are intentional: a root that lands exactly on an
     endpoint or midpoint short-circuits the search. *)
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

let bisect ?tol ?max_iter f lo hi =
  let flo = f lo in
  let fhi = f hi in
  bisect_with ?tol ?max_iter ~flo ~fhi f lo hi

let golden_min ?(tol = 1e-9) ?(max_iter = 200) f lo hi =
  let phi = (sqrt 5. -. 1.) /. 2. in
  let rec go a b fa_x fb_x x1 x2 iter =
    if b -. a <= tol || iter >= max_iter then (a +. b) /. 2.
    else if fa_x < fb_x then
      (* Minimum in [a, x2]. *)
      let b' = x2 and x2' = x1 in
      let x1' = b' -. (phi *. (b' -. a)) in
      go a b' (f x1') fa_x x1' x2' (iter + 1)
    else
      let a' = x1 and x1' = x2 in
      let x2' = a' +. (phi *. (b -. a')) in
      go a' b fb_x (f x2') x1' x2' (iter + 1)
  in
  let x1 = hi -. (phi *. (hi -. lo)) in
  let x2 = lo +. (phi *. (hi -. lo)) in
  go lo hi (f x1) (f x2) x1 x2 0
