(* Oracles for the maze-probe hot path. Each compares the code against a
   test-local copy of the code it replaced, bit for bit:

   - Delaylib.class_index (boundary search) against the log loop;
   - Delaylib.wire_delay / stage_delay against the eval_single fields;
   - Run.eval_chain (prefix chain) against Run.eval_greedy;
   and the split search in Maze.select against the two-pass grid select
   it replaced, by property: no worse where h is monotone, exact picks,
   and no feasibility lost under Optimal_dp. *)

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
        Run.top_margin
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

(* The two-pass grid select the split search replaced, memo included:
   an r x r bin grid over the port box plus one bin of margin, pass 0
   over the near-direct bins, pass 1 over the detour bins when pass 0
   leaves more than 0.5 ps of skew or no feasible bin. Each side is
   memoized per 0.1 um cell (the first distance probed in a cell stands
   for it), and the winner's evals are rebuilt at those first
   distances. *)
let cache_key d = int_of_float (Float.round (d *. 10.))

let grid_select dl (cfg : Cts_config.t) (p1 : Port.t) (p2 : Port.t) =
  let module Point = Geometry.Point in
  let pos1 = Port.pos p1 and pos2 = Port.pos p2 in
  let direct = Point.manhattan pos1 pos2 in
  let span = Float.max direct 1. in
  let r = Maze.bins_for span in
  let margin = span /. float_of_int r in
  let xmin = Float.min pos1.Point.x pos2.Point.x -. margin
  and xmax = Float.max pos1.Point.x pos2.Point.x +. margin
  and ymin = Float.min pos1.Point.y pos2.Point.y -. margin
  and ymax = Float.max pos1.Point.y pos2.Point.y +. margin in
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
  (* One side's memo: (side delay, feasible, first distance) per cell. *)
  let memo port ~max_d =
    let slots = Int.max 0 (cache_key max_d) + 2 in
    let side = Run.side dl cfg port ~max_d in
    let delays = Array.make slots Float.nan
    and feasible = Array.make slots false
    and first = Array.make slots Float.nan in
    fun d ->
      let key = cache_key d in
      if Float.is_nan delays.(key) then begin
        let e = Run.eval_side side d in
        delays.(key) <- Maze.side_delay dl cfg e e.Run.top_free;
        feasible.(key) <- e.Run.feasible;
        first.(key) <- d
      end;
      (delays.(key), feasible.(key), first.(key))
  in
  let m1 = memo p1 ~max_d:(max_d_from pos1)
  and m2 = memo p2 ~max_d:(max_d_from pos2) in
  let best = ref None in
  for pass = 0 to 1 do
    let detour_only = pass = 1 in
    let settled =
      match !best with
      | Some (_, _, _, _, _, skew, feas) -> feas && skew <= 0.5e-12
      | None -> false
    in
    if not (detour_only && settled) then
      for i = 0 to r - 1 do
        for j = 0 to r - 1 do
          let center = bin_center i j in
          let d1 = Point.manhattan pos1 center and d2 = Point.manhattan pos2 center in
          let is_direct = d1 +. d2 <= direct +. (2. *. margin) in
          if (not detour_only) = is_direct then begin
            let t1, f1, first1 = m1 d1 and t2, f2, first2 = m2 d2 in
            let skew = Float.abs (t1 -. t2) and feas = f1 && f2 in
            let better =
              match !best with
              | None -> true
              | Some (_, bd1, bd2, _, _, bskew, bfeas) ->
                  if feas && not bfeas then true
                  else if bfeas && not feas then false
                  else if skew < bskew -. 0.05e-12 then true
                  else if skew > bskew +. 0.05e-12 then false
                  else d1 +. d2 < bd1 +. bd2 -. 1.
            in
            if better then best := Some (center, d1, d2, first1, first2, skew, feas)
          end
        done
      done
  done;
  match !best with
  | None -> None
  | Some (center, d1, d2, first1, first2, skew, _) ->
      Some
        {
          Maze.bin_center = center;
          d1;
          d2;
          eval1 = Run.eval dl cfg p1 first1;
          eval2 = Run.eval dl cfg p2 first2;
          est_skew = skew;
        }

let place (x, y) pd =
  let p = port_of pd in
  let node = { p.Port.node with Ctree.pos = Geometry.Point.make x y } in
  { p with Port.node }

(* Port 2 up to [reach] um from port 1 in each axis, either direction. *)
let pair_arb reach =
  QCheck.(
    quad (float_range 0. 2000.) (float_range 0. 2000.)
      (float_range (-.reach) reach) (float_range (-.reach) reach))

let ports_of ((x, y, dx, dy), pd1, pd2) =
  (place (x, y) pd1, place (x +. dx, y +. dy) pd2)

let feasible (c : Maze.choice) = c.Maze.eval1.Run.feasible && c.Maze.eval2.Run.feasible

(* h at the search's 33 direct scan points, through plain Run.eval. *)
let scan_h dl cfg p1 p2 =
  let d = Geometry.Point.manhattan (Port.pos p1) (Port.pos p2) in
  List.init 33 (fun k ->
      let d1 = d *. float_of_int k /. 32. in
      let e1 = Run.eval dl cfg p1 d1 and e2 = Run.eval dl cfg p2 (d -. d1) in
      Maze.side_delay dl cfg e1 e1.Run.top_free
      -. Maze.side_delay dl cfg e2 e2.Run.top_free)

let rec monotone cmp = function
  | a :: (b :: _ as tl) -> cmp a b && monotone cmp tl
  | [ _ ] | [] -> true

(* (a) Where h is monotone over the scan and the grid's pick lies on
   the port-to-port segment, the search is no worse than the grid: skew
   within the selects' 0.05e-12 s tie window, and feasible whenever the
   grid is. Off the segment the grid can beat the search: its
   near-direct bins reach (d1, d2) with d1 + d2 up to two pitches over
   D, which straddles a jump of h (a buffer step) that the segment
   cannot — DESIGN.md 5o gives the measured gap. Returns [true] when
   the precondition does not hold. *)
let within_grid dl cfg p1 p2 =
  match grid_select dl cfg p1 p2 with
  | None -> false
  | Some g ->
      let c = Maze.select dl cfg p1 p2 in
      let d = Geometry.Point.manhattan (Port.pos p1) (Port.pos p2) in
      let on_segment = Float.abs (g.Maze.d1 +. g.Maze.d2 -. d) <= 1e-6 in
      (feasible c || not (feasible g))
      && ((not on_segment) || c.Maze.est_skew <= g.Maze.est_skew +. 0.05e-12)

let no_worse_than_grid dl cfg p1 p2 =
  let h = scan_h dl cfg p1 p2 in
  (not (monotone ( <= ) h || monotone ( >= ) h)) || within_grid dl cfg p1 p2

(* (b) The pick is exact: d1/d2 are the center's distances, a direct
   pick lies on the segment, a detour's short side is at most two
   pitches. And a pick that leaves more than 0.5 ps or no feasible run
   scanned the detour family too: at least 33 split points per family. *)
let exact_pick dl cfg p1 p2 =
  let module Point = Geometry.Point in
  Obs.reset ();
  Obs.set_enabled true;
  let c, probes =
    Fun.protect ~finally:(fun () -> Obs.set_enabled false) (fun () ->
        let c = Maze.select dl cfg p1 p2 in
        (c, Obs.read Obs.Maze_bins_evaluated))
  in
  let d = Point.manhattan (Port.pos p1) (Port.pos p2) in
  let pitch = Float.max d 1. /. float_of_int (Maze.bins_for (Float.max d 1.)) in
  let near a b = Float.abs (a -. b) <= 1e-6 in
  let settled = feasible c && c.Maze.est_skew <= 0.5e-12 in
  near c.Maze.d1 (Point.manhattan (Port.pos p1) c.Maze.bin_center)
  && near c.Maze.d2 (Point.manhattan (Port.pos p2) c.Maze.bin_center)
  && (near (c.Maze.d1 +. c.Maze.d2) d
     || Float.min c.Maze.d1 c.Maze.d2 <= (2. *. pitch) +. 1e-6
        && near (Float.max c.Maze.d1 c.Maze.d2) (d +. Float.min c.Maze.d1 c.Maze.d2))
  && (settled || d <= 0.01 || probes >= 66)

let qcheck_search_greedy =
  QCheck.Test.make ~name:"Maze.select: no worse than the grid where h is monotone"
    ~count:80
    QCheck.(triple (pair_arb 4500.) port_arb port_arb)
    (fun q ->
      let dl = T_env.get_dl () in
      let p1, p2 = ports_of q in
      no_worse_than_grid dl (Cts_config.default dl) p1 p2)

let qcheck_search_exact =
  QCheck.Test.make ~name:"Maze.select: direct picks on the segment, detours within 2 pitches"
    ~count:200
    QCheck.(triple (pair_arb 4500.) port_arb port_arb)
    (fun q ->
      let dl = T_env.get_dl () in
      let p1, p2 = ports_of q in
      exact_pick dl (Cts_config.default dl) p1 p2)

let qcheck_search_dp =
  QCheck.Test.make ~name:"Maze.select (Optimal_dp): feasible whenever the grid is"
    ~count:6
    QCheck.(triple (pair_arb 400.) port_arb port_arb)
    (fun q ->
      let dl = T_env.get_dl () in
      let cfg = Cts_config.with_insertion (Cts_config.default dl) Cts_config.Optimal_dp in
      let p1, p2 = ports_of q in
      match grid_select dl cfg p1 p2 with
      | None -> false
      | Some g -> feasible (Maze.select dl cfg p1 p2) || not (feasible g))

(* Under Optimal_dp with a heavy area weight h falls as well as rises:
   these pinned pairs (found by a seeded search: QCheck's generator for
   the properties above under [Random.State.make [| 1 |]], 32 of 300
   pairs with three or more sign changes, under the fast test library)
   have 3 sign changes over the scan each, and the root that matches the
   grid lies past the first: a search that bisects only the first
   bracket leaves each of them outside the tie window. The search
   bisects every bracket, so it stays within the tie window of the
   grid's on-segment pick. *)
let non_monotone_pairs =
  [
    ( (0x1.2491f8f297d23p+9, 0x1.fb87eb9f0565dp+8, 0x1.4544d487da862p+11, -0x1.9162e5f943cfap+10),
      (0x1.56ebd3ded8f19p+7, -0x1.e89f993b288a2p+3, 0x1.273d192e03a86p+8),
      (0x1.abb97e5fadb14p+8, -0x1.ca9a4df7b0ecfp+3, 0x1.4a05603f5efb2p+8) );
    ( (0x1.c1a428c9e503bp+6, 0x1.bf9e81d065682p+6, -0x1.bf4f5117b5737p+11, 0x1.a9219583bde6p+11),
      (0x1.d861ef841d053p+8, -0x1.e567f2f1a146bp+3, 0x1.39a43d45aef1ap+7),
      (0x1.0df3d83247cc9p+7, -0x1.af82edac34c57p+3, 0x1.596ef12c2d7dep+6) );
    ( (0x1.27605596e2b72p+9, 0x1.4d56155bfabf3p+7, -0x1.b5993e678e31cp+10, -0x1.580d126460c98p+11),
      (0x1.fb29146afdc9fp+7, -0x1.b29eff7e504a3p+3, -0x1.656e28ebb7ffep+5),
      (0x1.7db6028d1d128p+7, -0x1.ea2ce1924962bp+3, 0x1.6373b165aae78p+5) );
    ( (0x1.e4b65dfae939fp+10, 0x1.d7764d0038abdp+9, 0x1.3e78063d7964p+10, -0x1.e520ca5bb293cp+9),
      (0x1.1a91337d25b31p+9, -0x1.ead8449af6747p+3, 0x1.e88160064cc74p+4),
      (0x1.42541e57d9a3p+8, -0x1.b19b72ef23a2fp+3, 0x1.df7bbfe7d7bb4p+4) );
  ]

let test_select_every_bracket () =
  let dl = T_env.get_dl () in
  let cfg =
    {
      (Cts_config.with_insertion (Cts_config.default dl) Cts_config.Optimal_dp) with
      Cts_config.dp_area_weight = 2e-12;
    }
  in
  List.iteri
    (fun i q ->
      let p1, p2 = ports_of q in
      let rec changes = function
        | a :: (b :: _ as tl) ->
            (if (a < 0. && b > 0.) || (a > 0. && b < 0.) then 1 else 0) + changes tl
        | [ _ ] | [] -> 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "pair %d: several brackets" i)
        true
        (changes (scan_h dl cfg p1 p2) >= 2);
      Alcotest.(check bool)
        (Printf.sprintf "pair %d: within the grid's tie window" i)
        true (within_grid dl cfg p1 p2))
    non_monotone_pairs

(* A pair whose best feasible split lies at a feasibility edge between
   two scan points. Over the 33 scan points h rises monotonically with
   no sign change, and the last point (d2 = 0) is infeasible while the
   one before it is feasible: a search that brackets only sign changes
   never probes between them and misses the grid's on-segment pick by
   more than the tie window. Found by a soak of the property "no worse
   than the grid where h is monotone" (QCheck's generator, seed 12). *)
let feasibility_edge_pair =
  ( (0x1.746558bb19eb8p+10, 0x1.f032cb80c75afp+10, 0x1.d2d4dd1cdafe8p+9, -0x1.a70564c20515cp+10),
    (0x1.eba16b825a47p+5, -0x1.bb9fcd76f202ap+3, 0x1.9f634522cfdccp+6),
    (0x1.1654497dd156fp+9, -0x1.d97ccaedb6d1dp+3, 0x1.11a511ff1c92cp+8) )

let test_select_feasibility_edge () =
  let dl = T_env.get_dl () in
  let cfg = Cts_config.default dl in
  let p1, p2 = ports_of feasibility_edge_pair in
  let d = Geometry.Point.manhattan (Port.pos p1) (Port.pos p2) in
  let feas =
    List.init 33 (fun k ->
        let d1 = d *. float_of_int k /. 32. in
        (Run.eval dl cfg p1 d1).Run.feasible && (Run.eval dl cfg p2 (d -. d1)).Run.feasible)
  in
  let rec edges = function
    | a :: (b :: _ as tl) -> (if Bool.equal a b then 0 else 1) + edges tl
    | [ _ ] | [] -> 0
  in
  let h = scan_h dl cfg p1 p2 in
  Alcotest.(check bool) "h monotone over the scan" true (monotone ( <= ) h || monotone ( >= ) h);
  Alcotest.(check bool) "a feasibility edge between scan points" true (edges feas >= 1);
  Alcotest.(check bool) "within the grid's tie window" true (within_grid dl cfg p1 p2)

let test_select_edges () =
  let dl = T_env.get_dl () in
  let cfg = Cts_config.default dl in
  let pd = (40., -14.5, 10.) and pd' = (0., -13.8, 0.) in
  let check name p1 p2 =
    Alcotest.(check bool) (name ^ ": exact") true (exact_pick dl cfg p1 p2);
    Alcotest.(check bool) (name ^ ": vs grid") true (no_worse_than_grid dl cfg p1 p2)
  in
  (* Coincident ports: a 1 um span. *)
  check "coincident ports" (place (500., 500.) pd) (place (500., 500.) pd');
  (* A span long enough that the grid hits max_grid_bins. *)
  Alcotest.(check int) "grid at the cap" 181 (Maze.bins_for 11300.);
  check "max_grid_bins span" (place (0., 0.) pd) (place (11000., 300.) pd')

let suite ~property =
  [
    Alcotest.test_case "class_index at boundaries and edge caps" `Quick
      test_class_index_edges;
    property qcheck_class_index;
    property qcheck_surface_lookups;
    property qcheck_chain;
    property qcheck_search_greedy;
    property qcheck_search_exact;
    property qcheck_search_dp;
    Alcotest.test_case "select (Optimal_dp): every bracket of a non-monotone h"
      `Quick test_select_every_bracket;
    Alcotest.test_case "select: coincident ports and max_grid_bins" `Slow
      test_select_edges;
    Alcotest.test_case "select: a feasibility edge between scan points" `Quick
      test_select_feasibility_edge;
  ]
