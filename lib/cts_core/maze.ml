module Point = Geometry.Point

type choice = {
  bin_center : Point.t;
  d1 : float;
  d2 : float;
  eval1 : Run.eval;
  eval2 : Run.eval;
  est_skew : float;
  bins_per_dim : int;
}

let side_delay dl (cfg : Cts_config.t) (e : Run.eval) top_wire =
  let length = top_wire +. (e.Run.top_stub_len -. e.Run.top_free) in
  e.Run.delay_below
  +. Delaylib.wire_delay dl ~drive:cfg.assumed_driver ~load_cap:e.Run.top_load
       ~input_slew:cfg.slew_target ~length

(* The cap clamps last so it binds even against [grid_bins]: with the
   old [max grid_bins (min cap wanted)] order a config carrying
   [grid_bins > max_grid_bins] silently exceeded the cap ([Cts_config]
   now also rejects such configs up front). *)
let bins_for (cfg : Cts_config.t) span =
  let wanted = int_of_float (Float.ceil (span /. cfg.target_bin_len)) in
  Int.min cfg.max_grid_bins (Int.max cfg.grid_bins wanted)

(* Round to the nearest 0.1 um. [int_of_float (d *. 10.)] truncated
   toward zero: lengths 0.04 um apart could alias while lengths 0.01 um
   apart split, and the quantization was asymmetric around 0. *)
let cache_key d = int_of_float (Float.round (d *. 10.))

(* The per-side memo. Evals depend only on the path length, which is
   heavily shared between bins; quantize to 0.1 um (see [cache_key]),
   and the first distance probed in a cell stands for the whole cell.
   A bin reads only the side delay and the feasibility of that eval, so
   those two are all a cell keeps, unboxed, beside the first distance:
   the winning bin's two evals are rebuilt from their first distances
   once, at the end of [select]. The farthest probe distance is known
   up front, so the tables are preallocated once per side. *)
type memo = {
  delays : float array;  (* side delay per cell; NaN = empty *)
  feasible : Bytes.t;  (* '\001' = the cell's eval is feasible *)
  first : float array;  (* first distance probed per cell *)
  fill : float -> int;  (* the cell of a distance, filled on a miss *)
}

let memo dl (cfg : Cts_config.t) port ~max_d =
  let slots = Int.max 0 (cache_key max_d) + 2 in
  (* Table size is a pure function of the probe geometry, so the
     additive gauge total is schedule-independent; with the
     Eval_cache_misses counter it yields the memo fill rate. *)
  Obs.gauge_add Obs.Maze_memo_slots slots;
  let side = Run.side dl cfg port ~max_d in
  let delays = Array.make slots Float.nan
  and feasible = Bytes.make slots '\000'
  and first = Array.make slots Float.nan in
  let fill d =
    let key = cache_key d in
    if Float.is_nan delays.(key) then begin
      Obs.incr Obs.Eval_cache_misses;
      let e = Run.eval_side side d in
      delays.(key) <- side_delay dl cfg e e.Run.top_free;
      Bytes.set feasible key (if e.Run.feasible then '\001' else '\000');
      first.(key) <- d
    end
    else Obs.incr Obs.Eval_cache_hits;
    key
  in
  { delays; feasible; first; fill }

let probe m d = m.fill d
let memo_delay m key = m.delays.(key)
let memo_feasible m key = Bytes.get m.feasible key <> '\000'
let memo_first m key = m.first.(key)

let select dl (cfg : Cts_config.t) (p1 : Port.t) (p2 : Port.t) =
  Obs.incr Obs.Maze_selects;
  let pos1 = Port.pos p1 and pos2 = Port.pos p2 in
  let direct = Point.manhattan pos1 pos2 in
  let span = Float.max direct 1. in
  let r = bins_for cfg span in
  (* Bounding box with one bin of margin so detours can bend outward. *)
  let xmin = Float.min pos1.Point.x pos2.Point.x
  and xmax = Float.max pos1.Point.x pos2.Point.x
  and ymin = Float.min pos1.Point.y pos2.Point.y
  and ymax = Float.max pos1.Point.y pos2.Point.y in
  let margin = span /. float_of_int r in
  let xmin = xmin -. margin
  and xmax = xmax +. margin
  and ymin = ymin -. margin
  and ymax = ymax +. margin in
  let fr = float_of_int r in
  let bin_center i j : Point.t =
    {
      x = xmin +. ((float_of_int i +. 0.5) /. fr *. (xmax -. xmin));
      y = ymin +. ((float_of_int j +. 0.5) /. fr *. (ymax -. ymin));
    }
  in
  (* Every probed distance is a manhattan distance from the port to a
     point of the expanded box, so the corner-decomposed maximum bounds
     the memo's key range. *)
  let max_d_from (pos : Point.t) =
    Float.max (pos.Point.x -. xmin) (xmax -. pos.Point.x)
    +. Float.max (pos.Point.y -. ymin) (ymax -. pos.Point.y)
  in
  let m1 = memo dl cfg p1 ~max_d:(max_d_from pos1)
  and m2 = memo dl cfg p2 ~max_d:(max_d_from pos2) in
  (* The best bin so far, as scalars. They are seeded with bin (0, 0) —
     every grid has at least one bin ([bins_for] >= 1) — and the first
     bin the scan considers replaces the seed. The first distances of
     the best bin's cells ([bf1], [bf2]) rebuild its evals at the end. *)
  let c00 = bin_center 0 0 in
  let seeded = ref false in
  let bcenter = ref c00 in
  let bd1 = ref (Point.manhattan pos1 c00) and bd2 = ref (Point.manhattan pos2 c00) in
  let bf1 = ref !bd1 and bf2 = ref !bd2 in
  let bskew = ref Float.nan and bfeas = ref false in
  (* Pass 0 scans the near-direct bins; pass 1 the detour bins, only
     when the direct scan leaves residual skew or infeasibility. *)
  for pass = 0 to 1 do
    let detour_only = pass = 1 in
    if
      (not detour_only)
      || not (!seeded && !bskew <= 0.5e-12 && !bfeas)
    then
      for i = 0 to r - 1 do
        for j = 0 to r - 1 do
          let center = bin_center i j in
          let d1 = Point.manhattan pos1 center
          and d2 = Point.manhattan pos2 center in
          let is_direct = d1 +. d2 <= direct +. (2. *. margin) in
          if (not detour_only) = is_direct then begin
            Obs.incr Obs.Maze_bins_evaluated;
            let k1 = probe m1 d1 and k2 = probe m2 d2 in
            let skew = Float.abs (memo_delay m1 k1 -. memo_delay m2 k2) in
            let feas = memo_feasible m1 k1 && memo_feasible m2 k2 in
            let better =
              if not !seeded then true
              else if feas && not !bfeas then true
              else if !bfeas && not feas then false
              else if skew < ((!bskew -. 0.05e-12) [@cts.unit_ok]) then true
              else if skew > ((!bskew +. 0.05e-12) [@cts.unit_ok]) then false
              else d1 +. d2 < ((!bd1 +. !bd2 -. 1.) [@cts.unit_ok])
            in
            if better then begin
              seeded := true;
              bcenter := center;
              bd1 := d1;
              bd2 := d2;
              bf1 := memo_first m1 k1;
              bf2 := memo_first m2 k2;
              bskew := skew;
              bfeas := feas
            end
          end
        done
      done
  done;
  {
    bin_center = !bcenter;
    d1 = !bd1;
    d2 = !bd2;
    eval1 = Run.eval dl cfg p1 !bf1;
    eval2 = Run.eval dl cfg p2 !bf2;
    est_skew = !bskew;
    bins_per_dim = r;
  }
