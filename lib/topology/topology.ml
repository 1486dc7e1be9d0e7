module Point = Geometry.Point

type item = { pos : Point.t; delay : float }
type pairing = { pairs : (int * int) list; seed : int option }

let default_beta = 4e13

let edge_cost ?(beta = default_beta) a b =
  Obs.incr Obs.Topology_edge_costs;
  Point.manhattan a.pos b.pos +. (beta *. Float.abs (a.delay -. b.delay))

(* Indices [0, n) stably sorted by [cmp]: ties keep index order. *)
let sorted n cmp =
  let order = Array.init n Fun.id in
  Array.stable_sort cmp order;
  order

let level_pairing ?(beta = default_beta) ~centroid items =
  let n = Array.length items in
  if n < 2 then invalid_arg "Topology.level_pairing: need at least 2 items";
  if not (Float.is_finite beta && beta >= 0.) then
    invalid_arg "Topology.level_pairing: beta must be finite and non-negative";
  (* Live items in x order, as a doubly linked list over sorted slots. *)
  let xs = Array.map (fun it -> it.pos.Point.x) items in
  let by_x = sorted n (fun i j -> Float.compare xs.(i) xs.(j)) in
  let slot = Array.make n 0 in
  Array.iteri (fun s i -> slot.(i) <- s) by_x;
  let prev = Array.init n (fun s -> s - 1) in
  let next = Array.init n (fun s -> if s = n - 1 then -1 else s + 1) in
  let alive = Array.make n true in
  let remove i =
    alive.(i) <- false;
    let s = slot.(i) in
    if prev.(s) >= 0 then next.(prev.(s)) <- next.(s);
    if next.(s) >= 0 then prev.(next.(s)) <- prev.(s)
  in
  (* With an odd count, set aside the max-latency node as the seed. *)
  let seed =
    if n mod 2 = 0 then None
    else begin
      let best = ref 0 in
      for i = 1 to n - 1 do
        if items.(i).delay > items.(!best).delay then best := i
      done;
      remove !best;
      Some !best
    end
  in
  (* Farthest from the sink centroid first; the stable sort lets the
     lowest index win a distance tie, as a strict [>] scan would. *)
  let dist = Array.map (fun it -> Point.manhattan it.pos centroid) items in
  let farthest_first = sorted n (fun i j -> Float.compare dist.(j) dist.(i)) in
  (* Cheapest live neighbour of [f], lowest index on a cost tie. Walk the
     x order outward from [f], nearer x gap first. A side stops once its
     x gap exceeds the best cost: [edge_cost] adds non-negative terms to
     that very [Float.abs] gap (beta >= 0), so under round-to-nearest no
     item further out can match it. *)
  let nearest f =
    let fx = xs.(f) in
    let near = ref (-1) and best = ref 0. in
    let gap s = Float.abs (fx -. xs.(by_x.(s))) in
    let consider s =
      let j = by_x.(s) in
      let c = edge_cost ~beta items.(f) items.(j) in
      if !near < 0 || c < !best || ((c = !best) [@cts.float_eq_ok] && j < !near)
      then begin
        near := j;
        best := c
      end
    in
    let within s = s >= 0 && (!near < 0 || gap s <= !best) in
    let rec sweep l r =
      let l = if within l then l else -1 and r = if within r then r else -1 in
      if l >= 0 && (r < 0 || gap l <= gap r) then begin
        consider l;
        sweep prev.(l) r
      end
      else if r >= 0 then begin
        consider r;
        sweep l next.(r)
      end
    in
    let s = slot.(f) in
    sweep prev.(s) next.(s);
    !near
  in
  let pairs = ref [] in
  Array.iter
    (fun f ->
      if alive.(f) then begin
        remove f;
        let m = nearest f in
        remove m;
        Obs.incr Obs.Topology_pairings;
        pairs := (f, m) :: !pairs
      end)
    farthest_first;
  { pairs = List.rev !pairs; seed }
