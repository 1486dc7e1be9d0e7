module Point = Geometry.Point

type choice = {
  bin_center : Point.t;
  d1 : float;
  d2 : float;
  eval1 : Run.eval;
  eval2 : Run.eval;
  est_skew : float;
}

let side_delay dl (cfg : Cts_config.t) (e : Run.eval) top_wire =
  let length = top_wire +. (e.Run.top_stub_len -. e.Run.top_free) in
  e.Run.delay_below
  +. Delaylib.wire_delay dl ~drive:cfg.assumed_driver ~load_cap:e.Run.top_load
       ~input_slew:cfg.slew_target ~length

(* The paper's R = 45 bins per dimension, grown toward a 60 um pitch
   on long nets and capped at 181. *)
let grid_bins = 45
let max_grid_bins = 181
let target_bin_len = 60.

let bins_for span =
  let wanted = int_of_float (Float.ceil (span /. target_bin_len)) in
  Int.min max_grid_bins (Int.max grid_bins wanted)

(* Split points per scanned family (32 intervals), the bisection
   resolution, the skew tie window and the residual that triggers the
   detour family. *)
let scan_intervals = 32
let resolution = 0.01
let tie = 0.05e-12
let residual = 0.5e-12

(* The best point so far; [unset] fills its evals until the first
   probe seeds it. *)
type best = {
  mutable seeded : bool;
  mutable center : Point.t;
  mutable bd1 : float;
  mutable bd2 : float;
  mutable e1 : Run.eval;
  mutable e2 : Run.eval;
  mutable h : float;  (* side 1's delay minus side 2's *)
  mutable feas : bool;
}

(* Feasible first, then lower skew outside the tie window, then
   shorter wire; the incumbent keeps every remaining tie. *)
let better b ~feas ~skew ~wire =
  let bskew = Float.abs b.h in
  if not b.seeded then true
  else if feas && not b.feas then true
  else if b.feas && not feas then false
  else if skew < ((bskew -. tie) [@cts.unit_ok]) then true
  else if skew > ((bskew +. tie) [@cts.unit_ok]) then false
  else wire < ((b.bd1 +. b.bd2 -. 1.) [@cts.unit_ok])

let unset =
  {
    Run.delay_below = Float.nan;
    buffers = [];
    top_free = 0.;
    top_stub_len = 0.;
    top_load = 0.;
    feasible = false;
  }

let opposite a b = (a < 0. && b > 0.) || (a > 0. && b < 0.)

let select dl (cfg : Cts_config.t) (p1 : Port.t) (p2 : Port.t) =
  Obs.incr Obs.Maze_selects;
  let pos1 = Port.pos p1 and pos2 = Port.pos p2 in
  let direct = Point.manhattan pos1 pos2 in
  let span = Float.max direct 1. in
  let r = bins_for span in
  let reach = 2. *. span /. float_of_int r in
  let s1 = Run.side dl cfg p1 ~max_d:(direct +. reach)
  and s2 = Run.side dl cfg p2 ~max_d:(direct +. reach) in
  let b =
    {
      seeded = false;
      center = pos1;
      bd1 = 0.;
      bd2 = 0.;
      e1 = unset;
      e2 = unset;
      h = 0.;
      feas = false;
    }
  in
  (* Probe the point [at u] of a family: both sides at its exact
     manhattan distances; returns h there and whether both runs are
     feasible. *)
  let probe at u =
    Obs.incr Obs.Maze_bins_evaluated;
    let c = at u in
    let d1 = Point.manhattan pos1 c and d2 = Point.manhattan pos2 c in
    let e1 = Run.eval_side s1 d1 and e2 = Run.eval_side s2 d2 in
    let h =
      side_delay dl cfg e1 e1.Run.top_free
      -. side_delay dl cfg e2 e2.Run.top_free
    in
    let feas = e1.Run.feasible && e2.Run.feasible in
    if better b ~feas ~skew:(Float.abs h) ~wire:(d1 +. d2) then begin
      b.seeded <- true;
      b.center <- c;
      b.bd1 <- d1;
      b.bd2 <- d2;
      b.e1 <- e1;
      b.e2 <- e2;
      b.h <- h;
      b.feas <- feas
    end;
    (h, feas)
  in
  (* A bracket: h changes sign, or feasibility changes, between two
     probes. *)
  let brackets (h_a, f_a) (h_b, f_b) = opposite h_a h_b || not (Bool.equal f_a f_b) in
  (* Narrow every bracket on [lo, hi] to [resolution] um. A sign change
     with no feasibility edge stays in one half; a half that keeps a
     feasibility edge is narrowed toward it as well. *)
  let rec bisect at lo hi p_lo p_hi =
    if hi -. lo > resolution then begin
      let mid = 0.5 *. (lo +. hi) in
      let p_mid = probe at mid in
      if brackets p_lo p_mid then bisect at lo mid p_lo p_mid;
      if brackets p_mid p_hi then bisect at mid hi p_mid p_hi
    end
  in
  (* Scan a family over [0, len] um and bisect inside every bracket. *)
  let search at len =
    let n = if len > resolution then scan_intervals else 0 in
    let u k = len *. float_of_int k /. float_of_int scan_intervals in
    let rec scan k p_prev =
      if k <= n then begin
        let p = probe at (u k) in
        if brackets p_prev p then bisect at (u (k - 1)) (u k) p_prev p;
        scan (k + 1) p
      end
    in
    scan 1 (probe at 0.)
  in
  (* Direct family: the port-to-port segment, u um from port 1. *)
  search
    (fun u -> Point.lerp pos1 pos2 (if u >= direct then 1. else u /. direct))
    direct;
  (* Detour family: up to two pitches beyond the slower side's port,
     along y and away from the faster one. *)
  if not (b.feas && Float.abs b.h <= residual) then begin
    let slow, fast = if b.h > 0. then (pos1, pos2) else (pos2, pos1) in
    let dir = if fast.Point.y >= slow.Point.y then -1. else 1. in
    search (fun u -> { slow with Point.y = slow.Point.y +. (dir *. u) }) reach
  end;
  {
    bin_center = b.center;
    d1 = b.bd1;
    d2 = b.bd2;
    eval1 = b.e1;
    eval2 = b.e2;
    est_skew = Float.abs b.h;
  }
