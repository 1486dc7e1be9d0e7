module Point = Geometry.Point
module Buffer_lib = Circuit.Buffer_lib

type stats = {
  snaked : float;
  inserted_buffers : int;
  residual : float;
  detoured : bool;
}

(* Delay a fully buffered run of [length] um starting at [port] can add:
   the routing stage can spend at most this much extra delay on the
   faster side without detours. *)
let balance_capacity dl cfg (port : Port.t) length =
  let e = Run.eval dl cfg port length in
  let with_top = Maze.side_delay dl cfg e e.Run.top_free in
  Float.max 0. (with_top -. port.Port.delay)

(* --------------------------------------------------------------- *)
(* Balance stage: progressive wire snaking (Sec. 4.2.1).            *)

(* Insert one snaking stage (driving buffer + wire grown toward the slew
   budget) on top of [port]; the wire is folded in place, so the port
   position does not move. *)
let snake_stage dl (cfg : Cts_config.t) ~blockages (port : Port.t) ~max_delay =
  Obs.incr Obs.Snake_stages;
  let tech = Delaylib.tech dl in
  let buf, buf_span =
    Run.choose_buffer dl cfg ~stub_len:port.Port.stub_len
      ~load_cap:port.Port.stub_load
  in
  if buf_span <= 1. then None
  else begin
    (* Grow the wire until the slew budget or the remaining delay target
       is reached, whichever is first. *)
    let delay_of len =
      Run.stage_delay dl cfg buf ~length:(len +. port.Port.stub_len)
        ~load_cap:port.Port.stub_load
    in
    let at_span = delay_of buf_span in
    let len, added =
      if at_span <= max_delay then (buf_span, at_span)
      else begin
        (* Delay grows monotonically with length; find the length meeting
           the target. Both clamp values feed the bisection as its ends. *)
        let at_one = delay_of 1. in
        let f l = delay_of l -. max_delay in
        let flo = at_one -. max_delay in
        if flo >= 0. then (1., at_one)
        else
          let len =
            Numerics.Roots.bisect_with ~tol:0.5 ~flo
              ~fhi:(at_span -. max_delay) f 1. buf_span
          in
          (len, delay_of len)
      end
    in
    let pos = Blockage.nearest_legal blockages (Port.pos port) in
    let len = Float.max len (Point.manhattan pos (Port.pos port)) in
    let node =
      Ctree.buffer ~pos buf [ Ctree.edge ~length:len port.Port.node ]
    in
    let port' =
      Port.buffered tech ~buf ~delay:(port.Port.delay +. added)
        { port with Port.node }
    in
    Some (port', len)
  end

let balance dl (cfg : Cts_config.t) ~blockages (p1 : Port.t) (p2 : Port.t) =
  let dist = Point.manhattan (Port.pos p1) (Port.pos p2) in
  let snaked = ref 0. in
  let rec fix fast slow =
    let diff = slow.Port.delay -. fast.Port.delay in
    let capacity = balance_capacity dl cfg fast dist in
    if diff <= 0.8 *. capacity then fast
    else
      match
        snake_stage dl cfg ~blockages fast ~max_delay:(diff -. (0.5 *. capacity))
      with
      | None -> fast
      | Some (fast', len) ->
          snaked := !snaked +. len;
          if fast'.Port.delay >= ((fast.Port.delay +. 0.05e-12) [@cts.unit_ok])
          then
            fix fast' slow
          else fast'
  in
  let p1', p2' =
    if p1.Port.delay <= p2.Port.delay then (fix p1 p2, p2)
    else (p1, fix p2 p1)
  in
  (p1', p2', !snaked)

(* --------------------------------------------------------------- *)
(* Path materialization: build the Ctree chain for one side.        *)

(* [chain] returns the top node of the realized path (the last fixed
   node v_i) given the run evaluation and the path geometry. *)
let chain (e : Run.eval) (path : Lpath.t) (port : Port.t) =
  let rec build (placed : Run.placed list) below below_dist =
    match placed with
    | [] -> (below, below_dist)
    | { Run.buf; dist } :: rest ->
        let pos = Lpath.point_at path dist in
        let node =
          Ctree.buffer ~pos buf
            [ Ctree.edge ~length:(dist -. below_dist) below ]
        in
        build rest node dist
  in
  build e.Run.buffers port.Port.node 0.

(* --------------------------------------------------------------- *)
(* Binary search stage (Sec. 4.2.3): the merge point slides along the
   segment between the two last fixed nodes, evaluated by full top-down
   timing analysis of the candidate merged subtree with propagated
   slews — the accuracy that lets aggressive insertion keep skew low. *)

let candidate_tree ~pos ~v1 ~v2 ~w1 ~w2 =
  Ctree.merge ~pos
    [
      Ctree.edge ~length:(Float.max w1 (Point.manhattan pos v1.Ctree.pos)) v1;
      Ctree.edge ~length:(Float.max w2 (Point.manhattan pos v2.Ctree.pos)) v2;
    ]

let binary_search dl (cfg : Cts_config.t) ~(e1 : Run.eval) ~(e2 : Run.eval)
    ~v1 ~v2 ~(seg : Lpath.t) =
  let seg_len = Lpath.length seg in
  (* Feasibility clamp: neither arm may outgrow what the strongest buffer
     (which the merge-node guard can plant) can drive within the slew
     target; 0.9 margin absorbs sibling-branch loading. *)
  let strongest = Buffer_lib.largest (Delaylib.buffers dl) in
  let arm_cap (e : Run.eval) =
    0.9 *. Run.span dl cfg ~drive:strongest ~load_cap:e.Run.top_load
    -. (e.Run.top_stub_len -. e.Run.top_free)
  in
  let w1_max = Float.max 0. (arm_cap e1) in
  let w2_max = Float.max 0. (arm_cap e2) in
  let r_lo = Float.max 0. (1. -. (w2_max /. Float.max seg_len 1e-9)) in
  let r_hi = Float.min 1. (w1_max /. Float.max seg_len 1e-9) in
  let r_lo, r_hi = if r_lo <= r_hi then (r_lo, r_hi) else (0.5, 0.5) in
  (* Each probe is one top-down analysis of the candidate; a side's mid
     delay is taken over the sinks under its edge of the merge node. *)
  let mid = function Some (lo, hi) -> (hi +. lo) /. 2. | None -> 0. in
  let diff r =
    Obs.incr Obs.Bisection_iters;
    let pos = Lpath.point_at seg (r *. seg_len) in
    let cand =
      candidate_tree ~pos ~v1 ~v2 ~w1:(r *. seg_len)
        ~w2:((1. -. r) *. seg_len)
    in
    let side1, side2 =
      Timing.side_delays dl cfg ~drive:cfg.assumed_driver
        ~input_slew:cfg.slew_target cand
    in
    mid side1 -. mid side2
  in
  (* The clamp tests' end values feed the bisection, and a clamped
     search reports its end's value, so neither end is probed twice. *)
  if seg_len <= 1e-9 || r_hi -. r_lo <= 1e-9 then
    let r = (r_lo +. r_hi) /. 2. in
    (r, Float.abs (diff r))
  else
    let flo = diff r_lo in
    if flo >= 0. then (r_lo, Float.abs flo)
    else
      let fhi = diff r_hi in
      if fhi <= 0. then (r_hi, Float.abs fhi)
      else
        let r =
          Numerics.Roots.bisect_with ~tol:1e-3 ~flo ~fhi diff r_lo r_hi
        in
        (r, Float.abs (diff r))

(* --------------------------------------------------------------- *)

(* Blockage-aware position legalizer for buffer placement along a path:
   pull back toward the port when possible (always slew-safe), jump past
   the blockage otherwise. [None] when nothing from the blockage to the
   path end is legal — including the end itself, so clamping to the end
   (or the old [length +. 1.] off-path sentinel, which [Lpath.point_at]
   silently clamped to the end point) would drop a buffer inside a
   blockage; Run.eval treats [None] as explicit infeasibility and the
   merge-node guard takes over. *)
let placer blockages path ~cur d_ideal =
  if Blockage.legal blockages (Lpath.point_at path d_ideal) then Some d_ideal
  else begin
    Obs.incr Obs.Placer_adjusted;
    let down = Blockage.slide_down blockages path d_ideal in
    if down > ((cur +. 1.) [@cts.unit_ok]) then Some down
    else
      match Blockage.first_legal_after blockages path d_ideal with
      | Some up -> Some up
      | None ->
          Obs.incr Obs.Placer_infeasible;
          None
  end

(* Merge-node stub guard bounds: an unbuffered region at M longer or
   heavier than this gets a buffer planted on M itself. *)
let max_stub_len = 300.
let max_stub_cap = 30e-15

let merge ?(blockages = Blockage.empty) dl (cfg : Cts_config.t) p1 p2 =
  Obs.incr Obs.Merges_routed;
  let tech = Delaylib.tech dl in
  (* Stage 1: balance. *)
  let p1, p2, snaked =
    if cfg.enable_balance then balance dl cfg ~blockages p1 p2
    else (p1, p2, 0.)
  in
  (* Stage 2: route. The maze scan uses blockage-free estimates (wires
     may cross blockages; only buffer positions shift, and only
     slightly); the chosen runs are re-evaluated with legalized buffer
     placements before materialization. *)
  let choice = Maze.select dl cfg p1 p2 in
  let path1 = Blockage.best_path blockages (Port.pos p1) choice.Maze.bin_center in
  let path2 = Blockage.best_path blockages (Port.pos p2) choice.Maze.bin_center in
  let e1, e2 =
    if Blockage.is_empty blockages then (choice.Maze.eval1, choice.Maze.eval2)
    else
      (* Detoured paths may be longer than the maze's Manhattan estimate;
         re-evaluate with the real path lengths and legalized placement. *)
      ( Run.eval ~place:(placer blockages path1) dl cfg p1
          (Lpath.length path1),
        Run.eval ~place:(placer blockages path2) dl cfg p2
          (Lpath.length path2) )
  in
  let direct = Point.manhattan (Port.pos p1) (Port.pos p2) in
  let detoured = choice.Maze.d1 +. choice.Maze.d2 > direct +. 1. in
  (* Materialize both chains up to their last fixed nodes. *)
  let v1, _ = chain e1 path1 p1 in
  let v2, _ = chain e2 path2 p2 in
  (* Stage 3: binary search on the segment between the last fixed
     nodes. *)
  let seg = Lpath.make v1.Ctree.pos v2.Ctree.pos in
  let seg_len = Lpath.length seg in
  let r, residual =
    if cfg.enable_binary_search then binary_search dl cfg ~e1 ~e2 ~v1 ~v2 ~seg
    else (0.5, 0.)
  in
  let m_pos = Lpath.point_at seg (r *. seg_len) in
  let w1 = r *. seg_len and w2 = (1. -. r) *. seg_len in
  let merge_node = candidate_tree ~pos:m_pos ~v1 ~v2 ~w1 ~w2 in
  (* Unbuffered-stub bookkeeping at the new merge node. *)
  let stub1 = e1.Run.top_stub_len -. e1.Run.top_free in
  let stub2 = e2.Run.top_stub_len -. e2.Run.top_free in
  let unit_cap = (Delaylib.tech dl).Circuit.Tech.unit_cap in
  let len_left = w1 +. stub1 and len_right = w2 +. stub2 in
  let stub_len = Float.max len_left len_right in
  let total_cap =
    (unit_cap *. (len_left +. len_right))
    +. e1.Run.top_load +. e2.Run.top_load
  in
  let stub_load = total_cap -. (unit_cap *. stub_len) in
  let n_sinks = p1.Port.n_sinks + p2.Port.n_sinks in
  let inserted = List.length e1.Run.buffers + List.length e2.Run.buffers in
  (* Merge-node stub guard: when the unbuffered region at M grows past
     [max_stub_len] or [max_stub_cap] (or routing could not keep the
     slew legal), plant a buffer directly on the merge node. *)
  let stage_slew =
    Timing.stage_worst_slew dl ~drive:cfg.assumed_driver
      ~input_slew:cfg.slew_target merge_node
  in
  let needs_buffer =
    stub_len > max_stub_len
    || stub_load > max_stub_cap
    || stage_slew > cfg.slew_target
    || not (e1.Run.feasible && e2.Run.feasible)
  in
  let node, extra_buf, analysis_root =
    if needs_buffer then begin
      let pick, _ = Run.choose_buffer dl cfg ~stub_len:0. ~load_cap:stub_load in
      (* The planted buffer must itself keep the stage slew legal; fall
         back to the strongest type when the sized pick cannot. *)
      let buf =
        if
          Timing.stage_worst_slew dl ~drive:pick
            ~input_slew:cfg.slew_target merge_node
          <= cfg.slew_target
        then pick
        else Buffer_lib.largest (Delaylib.buffers dl)
      in
      let buf_pos = Blockage.nearest_legal blockages m_pos in
      let node =
        Ctree.buffer ~pos:buf_pos buf
          [ Ctree.edge ~length:(Point.manhattan buf_pos m_pos) merge_node ]
      in
      (node, 1, node)
    end
    else (merge_node, 0, merge_node)
  in
  (* Timing summary of the merged subtree: full top-down analysis under
     the assumed-driver-at-port convention. *)
  let rep =
    Timing.analyze_driven dl cfg ~drive:cfg.assumed_driver
      ~input_slew:cfg.slew_target analysis_root
  in
  let base_port =
    {
      Port.node;
      delay = rep.Timing.max_delay;
      skew_est = Timing.skew rep;
      stub_len = (if needs_buffer then 0. else stub_len);
      stub_load =
        (if needs_buffer then
           match node.Ctree.kind with
           | Ctree.Buf b -> Circuit.Buffer_lib.input_cap tech b
           | Ctree.Merge | Ctree.Sink _ -> stub_load
         else stub_load);
      n_sinks;
    }
  in
  ( base_port,
    {
      snaked;
      inserted_buffers = inserted + extra_buf;
      residual;
      detoured;
    } )
