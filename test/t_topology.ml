(* Tests for levelized topology generation (Sec. 4.1.1). *)

module P = Geometry.Point

let item x y delay = { Topology.pos = P.make x y; delay }

let centroid_of items =
  P.centroid (Array.to_list (Array.map (fun i -> i.Topology.pos) items))

let pairing_is_perfect_matching () =
  let rng = Util.Rng.create 99 in
  List.iter
    (fun n ->
      let items =
        Array.init n (fun _ ->
            item (Util.Rng.float rng 100.) (Util.Rng.float rng 100.)
              (Util.Rng.float rng 1e-10))
      in
      let p = Topology.level_pairing ~centroid:(centroid_of items) items in
      let used = Array.make n 0 in
      List.iter
        (fun (i, j) ->
          used.(i) <- used.(i) + 1;
          used.(j) <- used.(j) + 1)
        p.Topology.pairs;
      (match p.Topology.seed with
      | Some s -> used.(s) <- used.(s) + 1
      | None -> ());
      Array.iteri
        (fun i c ->
          Alcotest.(check int) (Printf.sprintf "n=%d item %d used once" n i) 1 c)
        used;
      Alcotest.(check bool) "seed iff odd" (n mod 2 = 1)
        (p.Topology.seed <> None))
    [ 2; 3; 4; 7; 16; 33 ]

let seed_is_max_latency () =
  let items =
    [| item 0. 0. 1e-10; item 10. 0. 5e-10; item 0. 10. 2e-10 |]
  in
  let p = Topology.level_pairing ~centroid:(centroid_of items) items in
  Alcotest.(check (option int)) "max latency promoted" (Some 1) p.Topology.seed

let close_pairs_preferred () =
  (* Two tight clusters far apart: pairing must stay within clusters. *)
  let items =
    [| item 0. 0. 0.; item 1. 0. 0.; item 100. 100. 0.; item 101. 100. 0. |]
  in
  let p = Topology.level_pairing ~centroid:(centroid_of items) items in
  let sorted_pair (i, j) = if i < j then (i, j) else (j, i) in
  let pairs = List.map sorted_pair p.Topology.pairs in
  Alcotest.(check bool) "cluster pairing" true
    (List.mem (0, 1) pairs && List.mem (2, 3) pairs)

let delay_difference_breaks_ties () =
  (* Equidistant candidates: the one with the matching delay wins. *)
  let a = item 0. 0. 5e-10 in
  let near_same_delay = item 10. 0. 5e-10 in
  let near_diff_delay = item 0. 10. 0. in
  let cost_same = Topology.edge_cost a near_same_delay in
  let cost_diff = Topology.edge_cost a near_diff_delay in
  Alcotest.(check bool) "delay term dominates tie" true (cost_same < cost_diff)

let edge_cost_formula () =
  let a = item 0. 0. 1e-10 and b = item 3. 4. 3e-10 in
  let c = Topology.edge_cost ~beta:1e13 a b in
  Alcotest.(check (float 1e-9)) "eq 4.1" (7. +. (1e13 *. 2e-10)) c

let farthest_first_processing () =
  (* The farthest node from the centroid is matched in the first pair. *)
  let items =
    [| item 0. 0. 0.; item 1. 1. 0.; item 50. 50. 0.; item 2. 0. 0. |]
  in
  let p = Topology.level_pairing ~centroid:(P.make 1. 1.) items in
  match p.Topology.pairs with
  | (i, _) :: _ -> Alcotest.(check int) "farthest first" 2 i
  | [] -> Alcotest.fail "no pairs"

let rejects_singletons () =
  Alcotest.check_raises "too few"
    (Invalid_argument "Topology.level_pairing: need at least 2 items")
    (fun () ->
      ignore
        (Topology.level_pairing ~centroid:P.origin [| item 0. 0. 0. |]))

let qcheck_matching_covers_all =
  QCheck.Test.make ~name:"pairing covers every item exactly once" ~count:50
    QCheck.(int_range 2 40)
    (fun n ->
      let rng = Util.Rng.create n in
      let items =
        Array.init n (fun _ ->
            item (Util.Rng.float rng 50.) (Util.Rng.float rng 50.) 0.)
      in
      let p = Topology.level_pairing ~centroid:(centroid_of items) items in
      let covered =
        (2 * List.length p.Topology.pairs)
        + match p.Topology.seed with Some _ -> 1 | None -> 0
      in
      covered = n)

let rejects_negative_beta () =
  let items = [| item 0. 0. 0.; item 1. 0. 1e-12 |] in
  List.iter
    (fun beta ->
      Alcotest.check_raises
        (Printf.sprintf "beta %g rejected by name" beta)
        (Invalid_argument
           "Topology.level_pairing: beta must be finite and non-negative")
        (fun () ->
          ignore (Topology.level_pairing ~beta ~centroid:P.origin items)))
    [ -1.; -1e-30; Float.nan; Float.infinity ]

(* The O(n^2) pairing the x-sorted sweep replaced: a strict [>] scan for
   the farthest live node, then a strict [<] scan for its cheapest live
   neighbour, both over every item. *)
let reference_pairing ~beta ~centroid items =
  let n = Array.length items in
  let cost a b =
    (1. *. P.manhattan a.Topology.pos b.Topology.pos)
    +. (beta *. Float.abs (a.Topology.delay -. b.Topology.delay))
  in
  let alive = Array.make n true in
  let remaining = ref n in
  let seed =
    if n mod 2 = 0 then None
    else begin
      let best = ref 0 in
      for i = 1 to n - 1 do
        if items.(i).Topology.delay > items.(!best).Topology.delay then
          best := i
      done;
      alive.(!best) <- false;
      decr remaining;
      Some !best
    end
  in
  let pairs = ref [] in
  while !remaining > 0 do
    let far = ref (-1) in
    for i = 0 to n - 1 do
      if alive.(i)
         && (!far < 0
            || P.manhattan items.(i).Topology.pos centroid
               > P.manhattan items.(!far).Topology.pos centroid)
      then far := i
    done;
    let f = !far in
    alive.(f) <- false;
    let near = ref (-1) in
    for j = 0 to n - 1 do
      if alive.(j)
         && (!near < 0
            || cost items.(f) items.(j) < cost items.(f) items.(!near))
      then near := j
    done;
    alive.(!near) <- false;
    remaining := !remaining - 2;
    pairs := (f, !near) :: !pairs
  done;
  { Topology.pairs = List.rev !pairs; seed }

(* Item sets built to tie: positions on a small integer grid or drawn
   from a few repeated points, delays all zero or from a few repeated
   values, beta 0, the default or 1e15, and an integer centroid half the
   time. *)
let qcheck_sweep_matches_scan =
  QCheck.Test.make ~name:"sweep pairing equals the O(n^2) scan" ~count:3000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let n = 2 + Util.Rng.int rng 149 in
      let grid = 1 + Util.Rng.int rng 12 in
      let pool =
        Array.init (1 + Util.Rng.int rng 6) (fun _ ->
            P.make (Util.Rng.float rng 100.) (Util.Rng.float rng 100.))
      in
      let pos_mode = Util.Rng.int rng 3 and delay_mode = Util.Rng.int rng 3 in
      let pos () =
        match pos_mode with
        | 0 ->
            P.make
              (float_of_int (Util.Rng.int rng grid))
              (float_of_int (Util.Rng.int rng grid))
        | 1 -> pool.(Util.Rng.int rng (Array.length pool))
        | _ -> P.make (Util.Rng.float rng 100.) (Util.Rng.float rng 100.)
      in
      let delay () =
        match delay_mode with
        | 0 -> 0.
        | 1 -> float_of_int (Util.Rng.int rng 4) *. 1e-12
        | _ -> Util.Rng.float rng 1e-10
      in
      let items =
        Array.init n (fun _ -> { Topology.pos = pos (); delay = delay () })
      in
      let beta = [| 0.; Topology.default_beta; 1e15 |].(Util.Rng.int rng 3) in
      let centroid =
        if Util.Rng.bool rng then
          P.make
            (float_of_int (Util.Rng.int rng grid))
            (float_of_int (Util.Rng.int rng grid))
        else centroid_of items
      in
      Topology.level_pairing ~beta ~centroid items
      = reference_pairing ~beta ~centroid items)

let suite =
  [
    Alcotest.test_case "perfect matching" `Quick pairing_is_perfect_matching;
    Alcotest.test_case "seed = max latency" `Quick seed_is_max_latency;
    Alcotest.test_case "close pairs preferred" `Quick close_pairs_preferred;
    Alcotest.test_case "delay ties" `Quick delay_difference_breaks_ties;
    Alcotest.test_case "edge cost formula" `Quick edge_cost_formula;
    Alcotest.test_case "farthest-first" `Quick farthest_first_processing;
    Alcotest.test_case "rejects singleton" `Quick rejects_singletons;
    Alcotest.test_case "rejects negative beta" `Quick rejects_negative_beta;
    QCheck_alcotest.to_alcotest qcheck_sweep_matches_scan;
    QCheck_alcotest.to_alcotest qcheck_matching_covers_all;
  ]
