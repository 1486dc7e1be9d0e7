(* Tests for the geometry library: points, Manhattan arcs / TRRs, boxes. *)

module P = Geometry.Point
module Trr = Geometry.Trr
module Bbox = Geometry.Bbox

let check_f = Alcotest.(check (float 1e-9))

let point_arith () =
  let a = P.make 1. 2. and b = P.make 4. 6. in
  check_f "manhattan" 7. (P.manhattan a b)

let point_lerp_midpoint () =
  let a = P.make 0. 0. and b = P.make 10. 20. in
  Alcotest.(check bool) "lerp 0" true (P.equal (P.lerp a b 0.) a);
  Alcotest.(check bool) "lerp 1" true (P.equal (P.lerp a b 1.) b);
  Alcotest.(check bool) "lerp 1/2" true
    (P.equal (P.lerp a b 0.5) (P.make 5. 10.))

let point_centroid () =
  let pts = [ P.make 0. 0.; P.make 2. 0.; P.make 1. 3. ] in
  Alcotest.(check bool) "centroid" true
    (P.equal (P.centroid pts) (P.make 1. 1.));
  Alcotest.check_raises "empty centroid"
    (Invalid_argument "Point.centroid: empty list") (fun () ->
      ignore (P.centroid []))

let trr_point_basics () =
  let t = Trr.of_point (P.make 3. 4.) in
  Alcotest.(check bool) "contains itself" true (Trr.contains t (P.make 3. 4.));
  Alcotest.(check bool) "is arc" true (Trr.is_arc t);
  check_f "distance to itself" 0. (Trr.distance t t);
  Alcotest.(check bool) "center" true (P.equal (Trr.center t) (P.make 3. 4.))

let trr_point_distance_is_manhattan () =
  let a = Trr.of_point (P.make 0. 0.) and b = Trr.of_point (P.make 3. 4.) in
  check_f "manhattan distance" 7. (Trr.distance a b)

let trr_arc_construction () =
  (* Endpoints on a slope -1 line: valid Manhattan arc. *)
  let t = Trr.of_arc (P.make 0. 4.) (P.make 4. 0.) in
  Alcotest.(check bool) "is arc" true (Trr.is_arc t);
  Alcotest.(check bool) "contains midpoint" true (Trr.contains t (P.make 2. 2.));
  Alcotest.(check bool) "excludes off-arc point" false
    (Trr.contains t (P.make 1. 1.));
  Alcotest.check_raises "rejects non-arc endpoints"
    (Invalid_argument "Trr.of_arc: endpoints not on a common Manhattan arc")
    (fun () -> ignore (Trr.of_arc (P.make 0. 0.) (P.make 1. 3.)))

let trr_inflate_contains () =
  let t = Trr.of_point (P.make 0. 0.) in
  let r = Trr.inflate t 5. in
  Alcotest.(check bool) "center" true (Trr.contains r (P.make 0. 0.));
  Alcotest.(check bool) "boundary" true (Trr.contains r (P.make 2. 3.));
  Alcotest.(check bool) "outside" false (Trr.contains r (P.make 3. 3.))

let trr_intersect_tangent () =
  (* Two points 10 apart, inflated by 4 and 6: tangent intersection. *)
  let a = Trr.inflate (Trr.of_point (P.make 0. 0.)) 4. in
  let b = Trr.inflate (Trr.of_point (P.make 10. 0.)) 6. in
  match Trr.intersect a b with
  | None -> Alcotest.fail "expected tangent intersection"
  | Some m ->
      Alcotest.(check bool) "intersection is an arc" true (Trr.is_arc ~eps:1e-6 m);
      let e1, e2 = Trr.core_endpoints m in
      check_f "endpoints 4 from a" 4. (P.manhattan (P.make 0. 0.) e1);
      check_f "endpoints 4 from a (2)" 4. (P.manhattan (P.make 0. 0.) e2)

let trr_intersect_empty () =
  let a = Trr.inflate (Trr.of_point (P.make 0. 0.)) 2. in
  let b = Trr.inflate (Trr.of_point (P.make 10. 0.)) 2. in
  Alcotest.(check bool) "disjoint" true (Trr.intersect a b = None)

let trr_closest_point () =
  let t = Trr.of_arc (P.make 0. 4.) (P.make 4. 0.) in
  let q = P.make 10. 10. in
  let c = Trr.closest_point t q in
  Alcotest.(check bool) "closest point on region" true (Trr.contains t c);
  check_f "distance consistent" (Trr.distance t (Trr.of_point q))
    (P.manhattan c q)

let trr_sample_contained () =
  let t = Trr.inflate (Trr.of_arc (P.make 0. 4.) (P.make 4. 0.)) 3. in
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool) "sample inside" true
        (Trr.contains t (Trr.sample t a b)))
    [ (0., 0.); (1., 0.); (0., 1.); (1., 1.); (0.5, 0.5); (0.3, 0.8) ]

let bbox_basics () =
  let b = Bbox.of_points [ P.make 1. 5.; P.make 4. 2.; P.make 3. 7. ] in
  check_f "width" 3. (Bbox.width b);
  check_f "height" 5. (Bbox.height b);
  check_f "longest side" 5. (Bbox.longest_side b);
  check_f "half perimeter" 8. (Bbox.half_perimeter b);
  Alcotest.(check bool) "contains" true (Bbox.contains b (P.make 2. 3.));
  Alcotest.(check bool) "excludes" false (Bbox.contains b (P.make 0. 0.))

let bbox_expand_union () =
  let b = Bbox.make 0. 0. 2. 2. in
  let e = Bbox.expand b 1. in
  Alcotest.(check bool) "expanded contains corner" true
    (Bbox.contains e (P.make (-1.) (-1.)));
  Alcotest.check_raises "inverted box"
    (Invalid_argument "Bbox.make: inverted box") (fun () ->
      ignore (Bbox.make 1. 0. 0. 0.))

(* Property: Manhattan distance between TRRs equals the minimum pointwise
   distance over sampled points of both regions (within sampling noise it
   lower-bounds it and is attained at the closest pair). *)
let qcheck_trr_distance =
  let gen =
    QCheck.Gen.(
      let pt = map2 P.make (float_bound_inclusive 100.) (float_bound_inclusive 100.) in
      map2
        (fun (p1, r1) (p2, r2) ->
          ( Trr.inflate (Trr.of_point p1) r1,
            Trr.inflate (Trr.of_point p2) r2 ))
        (pair pt (float_bound_inclusive 20.))
        (pair pt (float_bound_inclusive 20.)))
  in
  QCheck.Test.make ~name:"TRR distance lower-bounds pointwise distances"
    ~count:100 (QCheck.make gen) (fun (a, b) ->
      let d = Trr.distance a b in
      let ok = ref true in
      for i = 0 to 4 do
        for j = 0 to 4 do
          let pa = Trr.sample a (float_of_int i /. 4.) (float_of_int j /. 4.) in
          let pb = Trr.closest_point b pa in
          if P.manhattan pa pb < d -. 1e-6 then ok := false
        done
      done;
      !ok)

let qcheck_closest_point_optimal =
  let gen =
    QCheck.Gen.(
      let pt = map2 P.make (float_bound_inclusive 100.) (float_bound_inclusive 100.) in
      pair pt pt)
  in
  QCheck.Test.make ~name:"closest_point beats sampled candidates" ~count:200
    (QCheck.make gen) (fun (a, q) ->
      (* Build a slope -1 Manhattan arc through [a]. *)
      let t = Trr.of_arc a (P.make (a.P.x +. 5.) (a.P.y -. 5.)) in
      let c = Trr.closest_point t q in
      let d = P.manhattan c q in
      let ok = ref true in
      for i = 0 to 10 do
        let s = Trr.sample t (float_of_int i /. 10.) 0.5 in
        if P.manhattan s q < d -. 1e-6 then ok := false
      done;
      !ok)

let trr_inflate_rejects_negative () =
  let t = Trr.of_point (P.make 1. 2.) in
  Alcotest.check_raises "negative radius"
    (Invalid_argument "Trr.inflate: radius must be non-negative (got -1)")
    (fun () -> ignore (Trr.inflate t (-1.) : Trr.t));
  Alcotest.check_raises "NaN radius"
    (Invalid_argument "Trr.inflate: radius must be non-negative (got nan)")
    (fun () -> ignore (Trr.inflate t Float.nan : Trr.t))

let suite ~property =
  [
    Alcotest.test_case "point arithmetic" `Quick point_arith;
    Alcotest.test_case "point lerp/midpoint" `Quick point_lerp_midpoint;
    Alcotest.test_case "point centroid" `Quick point_centroid;
    Alcotest.test_case "trr point basics" `Quick trr_point_basics;
    Alcotest.test_case "trr distance = manhattan" `Quick
      trr_point_distance_is_manhattan;
    Alcotest.test_case "trr arc construction" `Quick trr_arc_construction;
    Alcotest.test_case "trr inflate/contains" `Quick trr_inflate_contains;
    Alcotest.test_case "trr inflate rejects a negative radius" `Quick
      trr_inflate_rejects_negative;
    Alcotest.test_case "trr tangent intersection" `Quick trr_intersect_tangent;
    Alcotest.test_case "trr empty intersection" `Quick trr_intersect_empty;
    Alcotest.test_case "trr closest point" `Quick trr_closest_point;
    Alcotest.test_case "trr sample contained" `Quick trr_sample_contained;
    Alcotest.test_case "bbox basics" `Quick bbox_basics;
    Alcotest.test_case "bbox expand/union" `Quick bbox_expand_union;
    property qcheck_trr_distance;
    property qcheck_closest_point_optimal;
  ]
