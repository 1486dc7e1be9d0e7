(* Focused tests for bounded-skew merging and useful-skew scheduling
   internals (beyond the end-to-end checks in t_dme/t_robust). *)

module P = Geometry.Point
module Trr = Geometry.Trr

let tech = T_env.tech
let check_f eps = Alcotest.(check (float eps))

let point_arc p = Trr.of_point p

(* ---------------- merge_bounded unit behaviour ---------------- *)

let bounded_symmetric_direct () =
  let m =
    Merge_seg.merge_bounded tech ~skew_bound:10e-12
      ~arc1:(point_arc (P.make 0. 0.)) ~t1_min:0. ~t1_max:0. ~c1:10e-15
      ~arc2:(point_arc (P.make 1000. 0.)) ~t2_min:0. ~t2_max:0. ~c2:10e-15
  in
  check_f 1e-9 "total is the direct distance" 1000. m.Merge_seg.total_l;
  check_f 5. "tap near the middle" 500.
    ((m.Merge_seg.r_lo +. m.Merge_seg.r_hi) /. 2.);
  Alcotest.(check bool) "interval narrow" true
    (m.Merge_seg.bdelay_max -. m.Merge_seg.bdelay_min <= 10e-12 +. 1e-15)

let bounded_absorbs_imbalance_without_snake () =
  (* A small delay offset fits inside the bound: no wire beyond the
     direct distance. *)
  let m =
    Merge_seg.merge_bounded tech ~skew_bound:50e-12
      ~arc1:(point_arc (P.make 0. 0.)) ~t1_min:0. ~t1_max:0. ~c1:10e-15
      ~arc2:(point_arc (P.make 200. 0.)) ~t2_min:20e-12 ~t2_max:20e-12
      ~c2:10e-15
  in
  check_f 1e-9 "no snake" 200. m.Merge_seg.total_l;
  Alcotest.(check bool) "interval within bound" true
    (m.Merge_seg.bdelay_max -. m.Merge_seg.bdelay_min <= 50e-12 +. 1e-15)

let bounded_snakes_when_budget_exceeded () =
  (* The same offset with a tight bound forces snaking. *)
  let m =
    Merge_seg.merge_bounded tech ~skew_bound:1e-12
      ~arc1:(point_arc (P.make 0. 0.)) ~t1_min:0. ~t1_max:0. ~c1:10e-15
      ~arc2:(point_arc (P.make 200. 0.)) ~t2_min:20e-12 ~t2_max:20e-12
      ~c2:10e-15
  in
  Alcotest.(check bool) "snaked beyond direct distance" true
    (m.Merge_seg.total_l > 200. +. 10.);
  (* The snake balances midpoints exactly; the residual interval stays at
     the children's width (0 here). *)
  Alcotest.(check bool) "interval collapsed" true
    (m.Merge_seg.bdelay_max -. m.Merge_seg.bdelay_min <= 1e-13)

let bounded_overlapping_regions_still_balance () =
  (* Regression: children whose regions overlap (distance 0) but whose
     delays differ must still snake — the l = 0 shortcut once skipped
     balancing entirely. *)
  let arc = point_arc (P.make 500. 500.) in
  let m =
    Merge_seg.merge_bounded tech ~skew_bound:0. ~arc1:arc ~t1_min:0.
      ~t1_max:0. ~c1:10e-15 ~arc2:arc ~t2_min:100e-12 ~t2_max:100e-12
      ~c2:10e-15
  in
  Alcotest.(check bool) "snaked" true (m.Merge_seg.total_l > 100.);
  check_f 1e-13 "balanced interval" 0.
    (m.Merge_seg.bdelay_max -. m.Merge_seg.bdelay_min)

let bounded_rejects_negative_bound () =
  let merge skew_bound () =
    ignore
      (Merge_seg.merge_bounded tech ~skew_bound
         ~arc1:(point_arc (P.make 0. 0.)) ~t1_min:0. ~t1_max:0. ~c1:10e-15
         ~arc2:(point_arc (P.make 100. 0.)) ~t2_min:0. ~t2_max:0. ~c2:10e-15
        : Merge_seg.bounded)
  in
  let msg got =
    Invalid_argument
      ("Merge_seg.merge_bounded: skew bound must be non-negative (got " ^ got
     ^ ")")
  in
  Alcotest.check_raises "negative bound" (msg "-1e-12") (merge (-1e-12));
  Alcotest.check_raises "NaN bound" (msg "nan") (merge Float.nan)

let bounded_interval_covers_children () =
  (* Child interval widths propagate, never shrink below the widest. *)
  let m =
    Merge_seg.merge_bounded tech ~skew_bound:30e-12
      ~arc1:(point_arc (P.make 0. 0.)) ~t1_min:0. ~t1_max:25e-12 ~c1:10e-15
      ~arc2:(point_arc (P.make 600. 0.)) ~t2_min:5e-12 ~t2_max:20e-12
      ~c2:10e-15
  in
  Alcotest.(check bool) "width at least child width" true
    (m.Merge_seg.bdelay_max -. m.Merge_seg.bdelay_min >= 25e-12 -. 1e-13)

let bounded_slice_tangency () =
  let a = point_arc (P.make 0. 0.) and b = point_arc (P.make 300. 0.) in
  let s = Merge_seg.bounded_slice a b ~total_l:300. ~r:120. in
  (* Points of the slice sit 120 from a and 180 from b. *)
  let p = Trr.center s in
  check_f 1. "dist to a" 120. (Trr.distance (point_arc p) a);
  check_f 1. "dist to b" 180. (Trr.distance (point_arc p) b)

let qcheck_bounded_respects_bound =
  QCheck.Test.make ~name:"merge_bounded interval width within budget"
    ~count:200
    QCheck.(
      quad (float_range 10. 800.)
        (pair (float_range 0. 3e-11) (float_range 0. 3e-11))
        (pair (float_range 1e-15 4e-14) (float_range 1e-15 4e-14))
        (float_range 0. 5e-11))
    (fun (dist, (t1, t2), (c1, c2), bound) ->
      let m =
        Merge_seg.merge_bounded tech ~skew_bound:bound
          ~arc1:(point_arc (P.make 0. 0.)) ~t1_min:t1 ~t1_max:t1 ~c1
          ~arc2:(point_arc (P.make dist 0.)) ~t2_min:t2 ~t2_max:t2 ~c2
      in
      m.Merge_seg.bdelay_max -. m.Merge_seg.bdelay_min <= bound +. 1e-13)

let qcheck_bounded_never_shorter_than_direct =
  QCheck.Test.make ~name:"merge_bounded wire at least the direct distance"
    ~count:200
    QCheck.(
      pair (float_range 10. 800.)
        (pair (float_range 0. 5e-11) (float_range 0. 5e-11)))
    (fun (dist, (t1, t2)) ->
      let m =
        Merge_seg.merge_bounded tech ~skew_bound:5e-12
          ~arc1:(point_arc (P.make 0. 0.)) ~t1_min:t1 ~t1_max:t1 ~c1:10e-15
          ~arc2:(point_arc (P.make 0. dist)) ~t2_min:t2 ~t2_max:t2 ~c2:10e-15
      in
      m.Merge_seg.total_l >= dist -. 1e-6)

(* ---------------- useful-skew internals ---------------- *)

let timing_subtracts_offsets () =
  let dl = T_env.get_dl () in
  let s1 = Ctree.sink ~name:"u1" ~pos:(P.make 300. 0.) ~cap:10e-15 in
  let s2 = Ctree.sink ~name:"u2" ~pos:(P.make (-300.) 0.) ~cap:10e-15 in
  let m =
    Ctree.merge ~pos:P.origin
      [ Ctree.edge ~length:300. s1; Ctree.edge ~length:300. s2 ]
  in
  let tree = Ctree.buffer ~pos:P.origin T_env.b20 [ Ctree.edge ~length:0. m ] in
  let base = Cts_config.default dl in
  let plain = Timing.analyze_tree dl base tree in
  let with_offset =
    Timing.analyze_tree dl
      { base with Cts_config.sink_offsets = [ ("u1", 40e-12) ] }
      tree
  in
  (* Identical tree: u1's reported (net) delay drops by exactly the
     offset; u2's is untouched. *)
  check_f 1e-15 "offset applied"
    (List.assoc "u1" plain.Timing.sink_delays -. 40e-12)
    (List.assoc "u1" with_offset.Timing.sink_delays);
  check_f 1e-15 "other sink untouched"
    (List.assoc "u2" plain.Timing.sink_delays)
    (List.assoc "u2" with_offset.Timing.sink_delays)

let port_offset_starts_negative () =
  let spec = { Sinks.name = "o"; pos = P.origin; cap = 5e-15 } in
  let p = Port.of_sink ~offset:30e-12 spec in
  check_f 1e-18 "delay is minus offset" (-30e-12) p.Port.delay;
  let q = Port.of_sink spec in
  check_f 1e-18 "default zero" 0. q.Port.delay

let suite =
  [
    Alcotest.test_case "bounded symmetric" `Quick bounded_symmetric_direct;
    Alcotest.test_case "bounded absorbs imbalance" `Quick
      bounded_absorbs_imbalance_without_snake;
    Alcotest.test_case "bounded snakes past budget" `Quick
      bounded_snakes_when_budget_exceeded;
    Alcotest.test_case "bounded overlapping regions" `Quick
      bounded_overlapping_regions_still_balance;
    Alcotest.test_case "bounded covers child widths" `Quick
      bounded_interval_covers_children;
    Alcotest.test_case "bounded slice tangency" `Quick bounded_slice_tangency;
    Alcotest.test_case "bounded rejects a negative bound" `Quick
      bounded_rejects_negative_bound;
    QCheck_alcotest.to_alcotest qcheck_bounded_respects_bound;
    QCheck_alcotest.to_alcotest qcheck_bounded_never_shorter_than_direct;
    Alcotest.test_case "timing subtracts offsets" `Quick
      timing_subtracts_offsets;
    Alcotest.test_case "port offset" `Quick port_offset_starts_negative;
  ]
