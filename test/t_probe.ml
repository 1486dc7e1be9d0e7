(* Oracles for the maze-probe hot path. Each compares the code against a
   test-local copy of the code it replaced, bit for bit:

   - Delaylib.class_index (boundary search) against the log loop;
   - Delaylib.wire_delay / stage_delay against the eval_single fields;
   - Run.eval_chain (prefix chain) against Run.eval_greedy;
   - Maze.select (unboxed memo, scalar best) against the select that
     kept every eval in an option table. *)

let bits = Int64.bits_of_float
let same a b = Int64.equal (bits a) (bits b)

(* ------------------------------------------------------------------ *)
(* Delaylib.class_index                                                *)

(* The reference rule: nearest class in log space, first on a tie. *)
let class_index_log classes cap =
  let best = ref 0 and best_d = ref Float.infinity in
  Array.iteri
    (fun i c ->
      let d = Float.abs (log (cap /. c)) in
      if d < !best_d then begin
        best := i;
        best_d := d
      end)
    classes;
  !best

let rec nudge f x n = if n = 0 then x else nudge f (f x) (n - 1)

(* Every class value and every geometric-mean boundary, each nudged by
   0-4 ulps either way, plus the caps the fast range excludes. *)
let edge_caps classes =
  let n = Array.length classes in
  let bounds = List.init (n - 1) (fun k -> sqrt (classes.(k) *. classes.(k + 1))) in
  let around x =
    List.concat_map
      (fun u -> [ nudge Float.pred x u; nudge Float.succ x u ])
      [ 0; 1; 2; 3; 4 ]
  in
  List.concat_map around (Array.to_list classes @ bounds)
  @ [
      0.; -0.; -1e-15; -35e-15; Float.nan; Float.infinity; Float.neg_infinity;
      Float.min_float; 4.9e-324; Float.max_float; 1e-300; 1e300;
    ]

let test_class_index_edges () =
  let dl = T_env.get_dl () in
  let classes = Delaylib.classes dl in
  List.iter
    (fun cap ->
      Alcotest.(check int)
        (Printf.sprintf "class of %h" cap)
        (class_index_log classes cap)
        (Delaylib.class_index dl cap))
    (edge_caps classes)

let qcheck_class_index =
  QCheck.Test.make ~name:"Delaylib.class_index = log loop (random caps)"
    ~count:2000
    QCheck.(float_range (-18.) (-12.))
    (fun e ->
      let dl = T_env.get_dl () in
      let cap = 10. ** e in
      Delaylib.class_index dl cap = class_index_log (Delaylib.classes dl) cap)

(* ------------------------------------------------------------------ *)
(* Delaylib.wire_delay / stage_delay                                   *)

let qcheck_surface_lookups =
  QCheck.Test.make ~name:"Delaylib.wire_delay/stage_delay = eval_single fields"
    ~count:500
    QCheck.(
      quad (int_range 0 2) (float_range (-17.) (-13.)) (float_range (-20.) 500.)
        (float_range (-200.) 4000.))
    (fun (b, e, slew_ps, length) ->
      let dl = T_env.get_dl () in
      let drive = List.nth (Delaylib.buffers dl) b in
      let load_cap = 10. ** e and input_slew = slew_ps *. 1e-12 in
      let ev = Delaylib.eval_single dl ~drive ~load_cap ~input_slew ~length in
      same
        (Delaylib.wire_delay dl ~drive ~load_cap ~input_slew ~length)
        ev.Delaylib.wire_delay
      && same
           (Delaylib.stage_delay dl ~drive ~load_cap ~input_slew ~length)
           (ev.Delaylib.buf_delay +. ev.Delaylib.wire_delay))

(* ------------------------------------------------------------------ *)
(* Run.eval_chain                                                      *)

let same_eval (a : Run.eval) (b : Run.eval) =
  same a.Run.delay_below b.Run.delay_below
  && same a.Run.top_free b.Run.top_free
  && same a.Run.top_stub_len b.Run.top_stub_len
  && same a.Run.top_load b.Run.top_load
  && Bool.equal a.Run.feasible b.Run.feasible
  && List.equal
       (fun (p : Run.placed) (q : Run.placed) ->
         String.equal p.Run.buf.Circuit.Buffer_lib.name q.Run.buf.Circuit.Buffer_lib.name
         && same p.Run.dist q.Run.dist)
       a.Run.buffers b.Run.buffers

(* stub_len 0-600 um, stub load across every class, any delay. *)
let port_of (stub_um, load_e, delay_ps) =
  let spec =
    { Sinks.name = "p"; pos = Geometry.Point.make 0. 0.; cap = 10. ** load_e }
  in
  {
    (Port.of_sink spec) with
    Port.delay = delay_ps *. 1e-12;
    stub_len = stub_um;
  }

let port_arb =
  QCheck.(
    triple (float_range 0. 600.) (float_range (-15.5) (-13.3))
      (float_range (-50.) 400.))

(* Lengths where a step's outcome flips: for every state of the long
   walk, the top test, the full-span limit, the [length + 0.5]
   bail-out and the 1 um degenerate step, each nudged by 0-2 ulps. *)
let threshold_lengths dl cfg (port : Port.t) ~max_d =
  let e = Run.eval_greedy dl cfg port max_d in
  let tech = Delaylib.tech dl in
  let states =
    (0., port.Port.stub_len, port.Port.stub_load)
    :: List.map
         (fun (p : Run.placed) ->
           (p.Run.dist, 0., Circuit.Buffer_lib.input_cap tech p.Run.buf))
         e.Run.buffers
  in
  List.concat_map
    (fun (pos, stub_len, stub_load) ->
      let assumed =
        cfg.Cts_config.top_margin
        *. Run.span dl cfg ~drive:cfg.Cts_config.assumed_driver ~load_cap:stub_load
      in
      let _, buf_span = Run.choose_buffer dl cfg ~stub_len ~load_cap:stub_load in
      List.concat_map
        (fun l ->
          List.concat_map
            (fun u -> [ nudge Float.pred l u; nudge Float.succ l u ])
            [ 0; 1; 2 ])
        [
          pos +. assumed -. stub_len;
          pos +. buf_span;
          pos +. buf_span -. 0.5;
          pos +. 1.;
        ])
    states

let qcheck_chain =
  QCheck.Test.make ~name:"Run.eval_chain = eval_greedy (ports, lengths, thresholds)"
    ~count:60
    QCheck.(pair port_arb (list_of_size (Gen.return 40) (float_range 0. 6000.)))
    (fun (pd, lengths) ->
      let dl = T_env.get_dl () in
      let cfg = Cts_config.default dl in
      let port = port_of pd in
      let max_d = 6000. in
      let c = Run.chain dl cfg port ~max_d in
      List.for_all
        (fun l -> same_eval (Run.eval_chain dl cfg c l) (Run.eval_greedy dl cfg port l))
        (lengths @ threshold_lengths dl cfg port ~max_d))

(* ------------------------------------------------------------------ *)
(* Maze.select                                                         *)

(* The select this module replaced: every probed eval kept in an
   option table per side, every bin a boxed [choice]. *)
let reference_select dl (cfg : Cts_config.t) (p1 : Port.t) (p2 : Port.t) =
  let module Point = Geometry.Point in
  let pos1 = Port.pos p1 and pos2 = Port.pos p2 in
  let direct = Point.manhattan pos1 pos2 in
  let span = Float.max direct 1. in
  let r = Maze.bins_for cfg span in
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
  let max_d_from (pos : Point.t) =
    Float.max (pos.Point.x -. xmin) (xmax -. pos.Point.x)
    +. Float.max (pos.Point.y -. ymin) (ymax -. pos.Point.y)
  in
  let eval_memo port ~max_d =
    let table = Array.make (Int.max 0 (Maze.cache_key max_d) + 2) None in
    fun d ->
      let key = Maze.cache_key d in
      match table.(key) with
      | Some e -> e
      | None ->
          let e = Run.eval dl cfg port d in
          table.(key) <- Some e;
          e
  in
  let eval1 = eval_memo p1 ~max_d:(max_d_from pos1)
  and eval2 = eval_memo p2 ~max_d:(max_d_from pos2) in
  let best = ref None in
  let consider (c : Maze.choice) =
    let better =
      match !best with
      | None -> true
      | Some (b : Maze.choice) ->
          let feas (c' : Maze.choice) = c'.eval1.Run.feasible && c'.eval2.Run.feasible in
          if feas c && not (feas b) then true
          else if feas b && not (feas c) then false
          else if c.est_skew < b.est_skew -. 0.05e-12 then true
          else if c.est_skew > b.est_skew +. 0.05e-12 then false
          else c.d1 +. c.d2 < b.d1 +. b.d2 -. 1.
    in
    if better then best := Some c
  in
  let scan ~detour_only =
    for i = 0 to r - 1 do
      for j = 0 to r - 1 do
        let center = bin_center i j in
        let d1 = Point.manhattan pos1 center and d2 = Point.manhattan pos2 center in
        let is_direct = d1 +. d2 <= direct +. (2. *. margin) in
        if (not detour_only) = is_direct then begin
          let e1 = eval1 d1 and e2 = eval2 d2 in
          let t1 = Maze.side_delay dl cfg e1 e1.Run.top_free in
          let t2 = Maze.side_delay dl cfg e2 e2.Run.top_free in
          consider
            {
              Maze.bin_center = center;
              d1;
              d2;
              eval1 = e1;
              eval2 = e2;
              est_skew = Float.abs (t1 -. t2);
              bins_per_dim = r;
            }
        end
      done
    done
  in
  scan ~detour_only:false;
  (match !best with
  | Some b when b.est_skew <= 0.5e-12 && b.eval1.Run.feasible && b.eval2.Run.feasible
    -> ()
  | _ -> scan ~detour_only:true);
  !best

let same_choice (a : Maze.choice) (b : Maze.choice) =
  same a.Maze.bin_center.Geometry.Point.x b.Maze.bin_center.Geometry.Point.x
  && same a.Maze.bin_center.Geometry.Point.y b.Maze.bin_center.Geometry.Point.y
  && same a.Maze.d1 b.Maze.d1
  && same a.Maze.d2 b.Maze.d2
  && same_eval a.Maze.eval1 b.Maze.eval1
  && same_eval a.Maze.eval2 b.Maze.eval2
  && same a.Maze.est_skew b.Maze.est_skew
  && a.Maze.bins_per_dim = b.Maze.bins_per_dim

let select_matches cfg dl p1 p2 =
  match reference_select dl cfg p1 p2 with
  | Some ref_c -> same_choice (Maze.select dl cfg p1 p2) ref_c
  | None -> false

let place (x, y) pd =
  let p = port_of pd in
  let node = { p.Port.node with Ctree.pos = Geometry.Point.make x y } in
  { p with Port.node }

let pair_arb die =
  QCheck.(
    quad (float_range 0. die) (float_range 0. die) (float_range 0. die)
      (float_range 0. die))

let qcheck_select_greedy =
  QCheck.Test.make ~name:"Maze.select = reference select (greedy)" ~count:25
    QCheck.(triple (pair_arb 3000.) port_arb port_arb)
    (fun ((x1, y1, x2, y2), pd1, pd2) ->
      let dl = T_env.get_dl () in
      let cfg = Cts_config.default dl in
      select_matches cfg dl (place (x1, y1) pd1) (place (x2, y2) pd2))

let qcheck_select_dp =
  QCheck.Test.make ~name:"Maze.select = reference select (Optimal_dp)" ~count:4
    QCheck.(triple (pair_arb 600.) port_arb port_arb)
    (fun ((x1, y1, x2, y2), pd1, pd2) ->
      let dl = T_env.get_dl () in
      let cfg = Cts_config.with_insertion (Cts_config.default dl) Cts_config.Optimal_dp in
      select_matches cfg dl (place (x1, y1) pd1) (place (x2, y2) pd2))

let test_select_edges () =
  let dl = T_env.get_dl () in
  let cfg = Cts_config.default dl in
  let pd = (40., -14.5, 10.) and pd' = (0., -13.8, 0.) in
  (* Coincident ports: a 1 um span. *)
  Alcotest.(check bool) "coincident ports" true
    (select_matches cfg dl (place (500., 500.) pd) (place (500., 500.) pd'));
  (* A span long enough that the grid hits max_grid_bins. *)
  let far = (11000., 300.) in
  Alcotest.(check int) "grid at the cap" cfg.Cts_config.max_grid_bins
    (Maze.bins_for cfg 11300.);
  Alcotest.(check bool) "max_grid_bins span" true
    (select_matches cfg dl (place (0., 0.) pd) (place far pd'))

let suite =
  [
    Alcotest.test_case "class_index at boundaries and edge caps" `Quick
      test_class_index_edges;
    QCheck_alcotest.to_alcotest qcheck_class_index;
    QCheck_alcotest.to_alcotest qcheck_surface_lookups;
    QCheck_alcotest.to_alcotest qcheck_chain;
    QCheck_alcotest.to_alcotest qcheck_select_greedy;
    QCheck_alcotest.to_alcotest qcheck_select_dp;
    Alcotest.test_case "select: coincident ports and max_grid_bins" `Slow
      test_select_edges;
  ]
