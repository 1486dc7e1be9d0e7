(* Oracles for the DP half of the maze-probe hot path. Each compares the
   code against a test-local copy of the code it replaced, bit for bit:

   - Run.eval_dp (flat tables over a per-port context) against the
     eval_dp that kept boxed states, list fronts and per-call hashtables,
     on the dp_grid grid, explicit position lists and blockage
     legalizers;
   - Run.eval under Optimal_dp, and one Run.side probed at many lengths
     in random order, against the eval that dispatched to eval_greedy
     and that eval_dp.

   Beside the [eval] fields, every case compares the counters the DP
   reports: dp.evals, dp.candidates, dp.pruned, dp.fallbacks, run.evals,
   the DP memo gauges and, for eval_dp, the delay-library lookups (one
   per memo miss, so a change of memo key shows there first). *)

let same_eval = T_probe.same_eval

(* ------------------------------------------------------------------ *)
(* The replaced code                                                    *)

let cost_better c1 a1 c2 a2 =
  match Float.compare c1 c2 with
  | 0 -> Float.compare a1 a2 < 0
  | c -> c < 0

type dp_state = {
  s_cost : float;
  s_delay : float;
  s_area : float;
  s_from : int * int;
}

let reference_eval_dp ?positions ?(place = fun ~cur:_ d -> Some d) dl
    (cfg : Cts_config.t) (port : Port.t) length : Run.eval =
  Obs.incr Obs.Dp_evals;
  let tech = Delaylib.tech dl in
  let types = Array.of_list (Delaylib.buffers dl) in
  let b = Array.length types in
  let caps = Array.map (fun t -> Circuit.Buffer_lib.input_cap tech t) types in
  let areas = Array.map Circuit.Buffer_lib.area_x types in
  let raw =
    match positions with
    | Some ps -> List.sort Float.compare ps
    | None ->
        let n = cfg.dp_grid in
        List.init (n - 1) (fun k ->
            float_of_int (k + 1) *. length /. float_of_int n)
  in
  let pos_list =
    let prev = ref 0. in
    List.filter_map
      (fun d ->
        if d <= !prev +. 1. || d >= length -. 0.5 then None
        else
          match place ~cur:!prev d with
          | None -> None
          | Some l ->
              if l <= !prev +. 1. || l >= length -. 0.5 then None
              else begin
                prev := l;
                Some l
              end)
      raw
  in
  let p = Array.of_list pos_list in
  let m = Array.length p in
  let ncls = Delaylib.n_classes dl in
  let cls_of_type = Array.map (fun c -> Delaylib.class_index dl c) caps in
  let cls_port = Delaylib.class_index dl port.Port.stub_load in
  let quantize len = int_of_float (Float.round (len *. 100.)) in
  let len_ids : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let id_of_len len =
    let k = quantize len in
    match Hashtbl.find_opt len_ids k with
    | Some id -> id
    | None ->
        let id = Hashtbl.length len_ids in
        Hashtbl.add len_ids k id;
        id
  in
  let port_len_id =
    Array.init m (fun i -> id_of_len (p.(i) +. port.Port.stub_len))
  in
  let pair_len_id =
    Array.init (m * m) (fun idx ->
        let i = idx / m and j = idx mod m in
        if j < i then id_of_len (p.(i) -. p.(j)) else -1)
  in
  let sd_tab =
    Array.make (Int.max 1 (Hashtbl.length len_ids * b * ncls)) (-1.)
  in
  let stage_cost t_idx ~len_id ~len ~cls ~load_cap =
    let slot = (((len_id * b) + t_idx) * ncls) + cls in
    let d = Array.unsafe_get sd_tab slot in
    if d >= 0. then d
    else begin
      let d = Run.stage_delay dl cfg types.(t_idx) ~length:len ~load_cap in
      Array.unsafe_set sd_tab slot d;
      d
    end
  in
  let span_port =
    Array.init b (fun t ->
        Run.span dl cfg ~drive:types.(t) ~load_cap:port.Port.stub_load)
  in
  let span_tt =
    Array.init b (fun t ->
        Array.init b (fun t' ->
            Run.span dl cfg ~drive:types.(t) ~load_cap:caps.(t')))
  in
  let assumed_span_cap =
    Array.init b (fun t ->
        Run.top_margin
        *. Run.span dl cfg ~drive:cfg.assumed_driver ~load_cap:caps.(t))
  in
  let assumed_span_port =
    Run.top_margin
    *. Run.span dl cfg ~drive:cfg.assumed_driver ~load_cap:port.Port.stub_load
  in
  let top_ids : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let top_id_of len =
    let k = quantize len in
    match Hashtbl.find_opt top_ids k with
    | Some id -> id
    | None ->
        let id = Hashtbl.length top_ids in
        Hashtbl.add top_ids k id;
        id
  in
  let base_top_id = top_id_of (length +. port.Port.stub_len) in
  let cand_top_id = Array.init m (fun i -> top_id_of (length -. p.(i))) in
  let top_tab = Array.make (Int.max 1 (Hashtbl.length top_ids * ncls)) (-1.) in
  let top_wire_delay ~top_id ~cls ~top_stub_len ~top_load =
    let slot = (top_id * ncls) + cls in
    let d = top_tab.(slot) in
    if d >= 0. then d
    else begin
      let d =
        Delaylib.wire_delay dl ~drive:cfg.assumed_driver ~load_cap:top_load
          ~input_slew:cfg.slew_target ~length:top_stub_len
      in
      top_tab.(slot) <- d;
      d
    end
  in
  let best = Array.make (m * b) None in
  let best_get i t = best.((i * b) + t) in
  let fronts = Array.make m [] in
  let consider i t cand =
    match best_get i t with
    | Some cur when not (cost_better cand.s_cost cand.s_area cur.s_cost cur.s_area)
      -> ()
    | _ -> best.((i * b) + t) <- Some cand
  in
  for i = 0 to m - 1 do
    for t = 0 to b - 1 do
      let stage_len = p.(i) +. port.Port.stub_len in
      if stage_len <= span_port.(t) then begin
        let d =
          stage_cost t ~len_id:port_len_id.(i) ~len:stage_len ~cls:cls_port
            ~load_cap:port.Port.stub_load
        in
        consider i t
          {
            s_cost = port.Port.delay +. d +. (cfg.dp_area_weight *. areas.(t));
            s_delay = port.Port.delay +. d;
            s_area = areas.(t);
            s_from = (-1, -1);
          }
      end;
      for j = 0 to i - 1 do
        let stage_len = p.(i) -. p.(j) in
        List.iter
          (fun (t', (st : dp_state)) ->
            if stage_len <= span_tt.(t).(t') then begin
              let d =
                stage_cost t
                  ~len_id:pair_len_id.((i * m) + j)
                  ~len:stage_len ~cls:cls_of_type.(t') ~load_cap:caps.(t')
              in
              consider i t
                {
                  s_cost = st.s_cost +. d +. (cfg.dp_area_weight *. areas.(t));
                  s_delay = st.s_delay +. d;
                  s_area = st.s_area +. areas.(t);
                  s_from = (j, t');
                }
            end)
          fronts.(j)
      done
    done;
    let row = ref [] in
    for t = b - 1 downto 0 do
      match best_get i t with
      | Some st ->
          Obs.incr Obs.Dp_candidates;
          let cls = cls_of_type.(t) in
          let replaced = ref false in
          row :=
            List.map
              (fun (t', st') ->
                if cls_of_type.(t') = cls then begin
                  replaced := true;
                  if cost_better st.s_cost st.s_area st'.s_cost st'.s_area
                  then begin
                    Obs.incr Obs.Dp_pruned;
                    (t, st)
                  end
                  else begin
                    Obs.incr Obs.Dp_pruned;
                    (t', st')
                  end
                end
                else (t', st'))
              !row;
          if not !replaced then row := (t, st) :: !row
      | None -> ()
    done;
    fronts.(i) <-
      List.sort (fun (t1, _) (t2, _) -> Float.compare caps.(t1) caps.(t2)) !row
  done;
  let finalize ~top_id ~cls ~top_stub_len ~top_load ~assumed_span ~cost ~area =
    let top_ok = top_stub_len <= assumed_span in
    (top_ok, cost +. top_wire_delay ~top_id ~cls ~top_stub_len ~top_load, area)
  in
  let best_final = ref None in
  let consider_final key (ok, c, a) =
    let better =
      match !best_final with
      | None -> true
      | Some (ok', c', a', _) ->
          if ok && not ok' then true
          else if ok' && not ok then false
          else cost_better c a c' a'
    in
    if better then best_final := Some (ok, c, a, key)
  in
  consider_final (-1, -1)
    (finalize ~top_id:base_top_id ~cls:cls_port
       ~top_stub_len:(length +. port.Port.stub_len)
       ~top_load:port.Port.stub_load ~assumed_span:assumed_span_port
       ~cost:port.Port.delay ~area:0.);
  for i = 0 to m - 1 do
    for t = 0 to b - 1 do
      match best_get i t with
      | Some st ->
          consider_final (i, t)
            (finalize ~top_id:cand_top_id.(i) ~cls:cls_of_type.(t)
               ~top_stub_len:(length -. p.(i))
               ~top_load:caps.(t) ~assumed_span:assumed_span_cap.(t)
               ~cost:st.s_cost ~area:st.s_area)
      | None -> ()
    done
  done;
  if Obs.enabled () then begin
    let filled tab =
      let k = ref 0 in
      Array.iter (fun d -> if d >= 0. then incr k) tab;
      !k
    in
    Obs.gauge_add Obs.Dp_memo_slots
      (Array.length sd_tab + Array.length top_tab);
    Obs.gauge_add Obs.Dp_memo_filled (filled sd_tab + filled top_tab)
  end;
  let feasible, (ri, rt) =
    match !best_final with
    | Some (ok, _, _, key) -> (ok, key)
    | None -> assert false
  in
  if ri < 0 then
    {
      Run.delay_below = port.Port.delay;
      buffers = [];
      top_free = length;
      top_stub_len = length +. port.Port.stub_len;
      top_load = port.Port.stub_load;
      feasible;
    }
  else begin
    let rec rebuild i t acc =
      match best_get i t with
      | None -> assert false
      | Some st ->
          let acc = { Run.buf = types.(t); dist = p.(i) } :: acc in
          let j, t' = st.s_from in
          if j < 0 then acc else rebuild j t' acc
    in
    let buffers = rebuild ri rt [] in
    let st = match best_get ri rt with Some st -> st | None -> assert false in
    {
      Run.delay_below = st.s_delay;
      buffers;
      top_free = length -. p.(ri);
      top_stub_len = length -. p.(ri);
      top_load = caps.(rt);
      feasible;
    }
  end

let reference_eval ?place dl (cfg : Cts_config.t) (port : Port.t) length =
  match cfg.insertion with
  | Cts_config.Greedy -> Run.eval_greedy ?place dl cfg port length
  | Cts_config.Optimal_dp ->
      let g = Run.eval_greedy ?place dl cfg port length in
      let d = reference_eval_dp ?place dl cfg port length in
      let pick_greedy =
        if g.Run.feasible && not d.Run.feasible then true
        else if d.Run.feasible && not g.Run.feasible then false
        else begin
          let gc, ga = Run.run_cost dl cfg g in
          let dc, da = Run.run_cost dl cfg d in
          cost_better gc ga dc da
        end
      in
      if pick_greedy then begin
        Obs.incr Obs.Dp_fallbacks;
        g
      end
      else d

(* ------------------------------------------------------------------ *)
(* Counted comparison                                                   *)

type reading = { counters : int list; gauges : int list }

let dp_counters =
  Obs.[ Dp_evals; Dp_candidates; Dp_pruned; Dp_fallbacks; Run_evals ]

let dp_gauges = Obs.[ Dp_memo_slots; Dp_memo_filled ]

(* [f ()] with observability on from zero, and what it counted. *)
let counted ~lookups f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      let v = f () in
      let cs = if lookups then Obs.Delay_evals_single :: dp_counters else dp_counters in
      (v, { counters = List.map Obs.read cs; gauges = List.map Obs.gauge_read dp_gauges }))

let show_eval (e : Run.eval) =
  Printf.sprintf "{delay %h, top_free %h, top_stub %h, load %h, %b, [%s]}"
    e.Run.delay_below e.Run.top_free e.Run.top_stub_len e.Run.top_load
    e.Run.feasible
    (String.concat "; "
       (List.map
          (fun (p : Run.placed) ->
            Printf.sprintf "%s@%h" p.Run.buf.Circuit.Buffer_lib.name p.Run.dist)
          e.Run.buffers))

let show_reading r =
  String.concat " " (List.map string_of_int (r.counters @ r.gauges))

(* The new code [f] and the reference [g] return the same eval, bit for
   bit, and count the same. The reference runs once first so that both
   counted runs find every span cached. A mismatch prints both sides
   into the test log. *)
let agree ?(lookups = false) f g =
  ignore (g () : Run.eval);
  let e, r = counted ~lookups f and e', r' = counted ~lookups g in
  let ok = same_eval e e' && r = r' in
  if not ok then
    Printf.printf "mismatch:\n  new %s  counts %s\n  ref %s  counts %s\n"
      (show_eval e) (show_reading r) (show_eval e') (show_reading r');
  ok

(* ------------------------------------------------------------------ *)
(* Cases                                                                *)

let dl5 () = Lazy.force T_insertion.dl5

(* One of the two test libraries: three cells in cap order, or five
   listed out of cap order. *)
let library five = if five then dl5 () else T_env.get_dl ()

let dp_cfg dl grid =
  {
    (Cts_config.with_insertion (Cts_config.default dl) Cts_config.Optimal_dp)
    with
    Cts_config.dp_grid = grid;
  }

let grid_gen = QCheck.Gen.oneofl [ 2; 3; 16; 40 ]

(* Run lengths up to 5,000 um, a quarter of them under 16 um, where grid
   slots fall within 1 um of each other and drop out. *)
let length_gen =
  QCheck.Gen.(frequency [ (1, float_range 0. 16.); (3, float_range 0. 5000.) ])

let port_gen = QCheck.gen T_probe.port_arb

let case_arb =
  QCheck.make
    ~print:(fun (five, grid, (stub, load_e, delay_ps), length) ->
      Printf.sprintf "lib%d grid=%d port{stub=%h load=1e%h delay=%hps} length=%h"
        (if five then 5 else 3) grid stub load_e delay_ps length)
    QCheck.Gen.(quad bool grid_gen port_gen length_gen)

let qcheck_eval_dp =
  QCheck.Test.make ~name:"Run.eval_dp = reference (ports, lengths, dp_grid)"
    ~count:1000 case_arb (fun (five, grid, pd, length) ->
      let dl = library five in
      let cfg = dp_cfg dl grid and port = T_probe.port_of pd in
      agree ~lookups:true
        (fun () -> Run.eval_dp dl cfg port length)
        (fun () -> reference_eval_dp dl cfg port length))

(* Explicit position lists with near-duplicates: each drawn position
   also appears exactly 1 um up, 1 um up +- 1 ulp and a hair away, so
   the 1 um spacing rule and the sort meet ties. *)
let positions_arb =
  QCheck.make
    ~print:(fun ((five, pd, length), ps) ->
      Printf.sprintf "lib%d port=%s length=%h positions=[%s]"
        (if five then 5 else 3)
        (let s, l, d = pd in Printf.sprintf "{%h %h %h}" s l d)
        length
        (String.concat "; " (List.map (Printf.sprintf "%h") ps)))
    QCheck.Gen.(
      let* five = bool in
      let* pd = port_gen in
      let* length = float_range 0. 3000. in
      let* picks = list_size (int_range 0 12) (float_range (-10.) (length +. 10.)) in
      let+ kinds = list_repeat (List.length picks) (int_range 0 4) in
      let ps =
        List.concat
          (List.map2
             (fun d k ->
               match k with
               | 0 -> [ d ]
               | 1 -> [ d; d +. 1. ]
               | 2 -> [ d; Float.succ (d +. 1.); Float.pred (d +. 1.) ]
               | 3 -> [ d; d +. 1e-9; d ]
               | _ -> [ d; length -. 0.5; length -. 0.5 -. 1e-12 ])
             picks kinds)
      in
      ((five, pd, length), ps))

let qcheck_positions =
  QCheck.Test.make ~name:"Run.eval_dp ~positions = reference (near-duplicates)"
    ~count:600 positions_arb (fun ((five, pd, length), positions) ->
      let dl = library five in
      let cfg = dp_cfg dl 16 and port = T_probe.port_of pd in
      agree ~lookups:true
        (fun () -> Run.eval_dp ~positions dl cfg port length)
        (fun () -> reference_eval_dp ~positions dl cfg port length))

(* A blockage legalizer over random blocked intervals: a planned
   position inside one is pushed past it, pulled back toward [cur]
   (possibly onto it) or refused. *)
type action = Push | Pull | Refuse

let legalizer blocks ~cur d =
  match List.find_opt (fun (lo, hi, _) -> lo <= d && d <= hi) blocks with
  | None -> Some d
  | Some (_, hi, Push) -> Some (hi +. 0.25)
  | Some (lo, _, Pull) -> Some (Float.max cur (lo -. 0.75))
  | Some (_, _, Refuse) -> None

let place_arb =
  QCheck.make
    ~print:(fun ((five, grid, pd, length), blocks) ->
      Printf.sprintf "lib%d grid=%d port=%s length=%h blocks=[%s]"
        (if five then 5 else 3)
        grid
        (let s, l, d = pd in Printf.sprintf "{%h %h %h}" s l d)
        length
        (String.concat "; "
           (List.map
              (fun (lo, hi, a) ->
                Printf.sprintf "%g-%g %s" lo hi
                  (match a with Push -> "push" | Pull -> "pull" | Refuse -> "refuse"))
              blocks)))
    QCheck.Gen.(
      let* case = quad bool grid_gen port_gen (float_range 20. 5000.) in
      let _, _, _, length = case in
      let+ blocks =
        list_size (int_range 0 4)
          (let* lo = float_range 0. length in
           let* w = float_range 0. 400. in
           let+ a = oneofl [ Push; Pull; Refuse ] in
           (lo, lo +. w, a))
      in
      (case, blocks))

let qcheck_place =
  QCheck.Test.make
    ~name:"Run.eval_dp and Run.eval ~place = reference (blockages)" ~count:600
    place_arb (fun ((five, grid, pd, length), blocks) ->
      let dl = library five in
      let cfg = dp_cfg dl grid and port = T_probe.port_of pd in
      let place = legalizer blocks in
      agree ~lookups:true
        (fun () -> Run.eval_dp ~place dl cfg port length)
        (fun () -> reference_eval_dp ~place dl cfg port length)
      && agree
           (fun () -> Run.eval ~place dl cfg port length)
           (fun () -> reference_eval ~place dl cfg port length))

(* One side probed at many lengths in random order, repeats included:
   every probe must match a fresh reference eval, so a table the side
   fails to reset between probes shows. Both engines; the public
   Run.eval must agree too. *)
let side_arb =
  QCheck.make
    ~print:(fun ((five, dp, grid, pd), lengths) ->
      Printf.sprintf "lib%d %s grid=%d port=%s lengths=[%s]"
        (if five then 5 else 3)
        (if dp then "dp" else "greedy")
        grid
        (let s, l, d = pd in Printf.sprintf "{%h %h %h}" s l d)
        (String.concat "; " (List.map (Printf.sprintf "%h") lengths)))
    QCheck.Gen.(
      let* case = quad bool bool grid_gen port_gen in
      let+ lengths = list_size (int_range 1 30) length_gen in
      (case, lengths @ List.filteri (fun i _ -> i mod 3 = 0) lengths))

let qcheck_side =
  QCheck.Test.make
    ~name:"Run.eval_side and Run.eval = reference (one side, many lengths)"
    ~count:120 side_arb (fun ((five, dp, grid, pd), lengths) ->
      let dl = library five in
      let cfg =
        if dp then dp_cfg dl grid
        else { (Cts_config.default dl) with Cts_config.dp_grid = grid }
      in
      let port = T_probe.port_of pd in
      let s = Run.side dl cfg port ~max_d:5000. in
      List.for_all
        (fun length ->
          agree
            (fun () -> Run.eval_side s length)
            (fun () -> reference_eval dl cfg port length)
          && agree
               (fun () -> Run.eval dl cfg port length)
               (fun () -> reference_eval dl cfg port length))
        lengths)

(* Exact ties. A NaN port delay makes every cost NaN, which
   [Float.compare] ranks equal, so areas alone decide and equal-area
   chains tie; a twin cell (BUF20Y, electrically BUF20X) ties with its
   original in every state. Which tied state survives is then decided by
   the scan orders and the strict-improvement rules alone. *)
let dl_twin =
  lazy
    (Delaylib.load_or_characterize ~profile:Delaylib.Fast
       ~cache:(T_env.beside_binary "test_delaylib_fast_twin.txt") T_env.tech
       (Circuit.Buffer_lib.default_library
       @ [ Circuit.Buffer_lib.make ~name:"BUF20Y" ~size:20. ]))

let tie_arb =
  QCheck.make
    ~print:(fun ((twin, nan_delay, grid, length), (stub, load_e, delay_ps)) ->
      Printf.sprintf "%s delay=%s grid=%d length=%h port{stub=%h load=1e%h}"
        (if twin then "twin" else "lib3")
        (if nan_delay then "nan" else Printf.sprintf "%hps" delay_ps)
        grid length stub load_e)
    QCheck.Gen.(pair (quad bool bool grid_gen length_gen) port_gen)

let qcheck_ties =
  QCheck.Test.make ~name:"Run.eval_dp and Run.eval_side = reference (exact ties)"
    ~count:600 tie_arb (fun ((twin, nan_delay, grid, length), pd) ->
      let dl = if twin then Lazy.force dl_twin else T_env.get_dl () in
      let cfg = dp_cfg dl grid in
      let port =
        let p = T_probe.port_of pd in
        if nan_delay then { p with Port.delay = Float.nan } else p
      in
      agree ~lookups:true
        (fun () -> Run.eval_dp dl cfg port length)
        (fun () -> reference_eval_dp dl cfg port length)
      && agree
           (fun () -> Run.eval_side (Run.side dl cfg port ~max_d:5000.) length)
           (fun () -> reference_eval dl cfg port length))

(* The 1-sink degenerate runs: a zero-length run, a run shorter than
   the 1 um spacing, the largest grid and a run past max_d. *)
let test_side_edges () =
  let dl = T_env.get_dl () in
  let port = T_probe.port_of (40., -14.5, 10.) in
  List.iter
    (fun grid ->
      let cfg = dp_cfg dl grid in
      let s = Run.side dl cfg port ~max_d:100. in
      List.iter
        (fun length ->
          Alcotest.(check bool)
            (Printf.sprintf "grid %d, length %g" grid length)
            true
            (agree
               (fun () -> Run.eval_side s length)
               (fun () -> reference_eval dl cfg port length)))
        [ 0.; 0.5; 1.; 1.5; 2.; 15.9; 100.; 2000.; 4999.; 0. ])
    [ 2; 3; 16; 40 ]

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_eval_dp;
    QCheck_alcotest.to_alcotest qcheck_positions;
    QCheck_alcotest.to_alcotest qcheck_place;
    QCheck_alcotest.to_alcotest qcheck_side;
    QCheck_alcotest.to_alcotest qcheck_ties;
    Alcotest.test_case "side: degenerate and long runs" `Quick test_side_edges;
  ]
