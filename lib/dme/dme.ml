module Point = Geometry.Point
module Trr = Geometry.Trr
module Buffer_lib = Circuit.Buffer_lib

type bu = { arc : Trr.t; delay : float; cap : float; shape : shape }

and shape =
  | Leaf of Sinks.spec
  | Node of {
      len1 : float;
      len2 : float;
      child1 : bu;
      child2 : bu;
      buffered : Buffer_lib.t option;
    }

let buffer_delay_estimate tech (b : Buffer_lib.t) ~load =
  let rd = Buffer_lib.drive_resistance tech b in
  let intrinsic =
    rd *. (Buffer_lib.output_cap tech b +. Buffer_lib.internal_cap tech b)
  in
  intrinsic +. (rd *. load)

(* Pick the smallest buffer able to drive [load] with a reasonable RC
   delay; fall back to the largest. *)
let size_buffer tech lib ~load =
  let budget = 40e-12 in
  let fits b = Buffer_lib.drive_resistance tech b *. load <= budget in
  match List.filter fits lib with
  | [] -> Buffer_lib.largest lib
  | candidates -> Buffer_lib.smallest candidates

let leaf (s : Sinks.spec) =
  { arc = Trr.of_point s.Sinks.pos; delay = 0.; cap = s.Sinks.cap; shape = Leaf s }

(* One bottom-up level: pair and merge. *)
let merge_pair tech ~buffering lib a b =
  let m =
    Merge_seg.merge tech ~arc1:a.arc ~t1:a.delay ~c1:a.cap ~arc2:b.arc
      ~t2:b.delay ~c2:b.cap
  in
  let node buffered delay cap =
    {
      arc = m.Merge_seg.ms;
      delay;
      cap;
      shape =
        Node
          {
            len1 = m.Merge_seg.len1;
            len2 = m.Merge_seg.len2;
            child1 = a;
            child2 = b;
            buffered;
          };
    }
  in
  match buffering with
  | None -> node None m.Merge_seg.delay m.Merge_seg.cap
  | Some cap_limit ->
      if m.Merge_seg.cap > cap_limit then begin
        let buf = size_buffer tech lib ~load:m.Merge_seg.cap in
        let delay =
          m.Merge_seg.delay
          +. buffer_delay_estimate tech buf ~load:m.Merge_seg.cap
        in
        node (Some buf) delay (Buffer_lib.input_cap tech buf)
      end
      else node None m.Merge_seg.delay m.Merge_seg.cap

(* Pair a level, merge each pair and recurse until one item remains.
   A level is its head and the rest, so it is never empty and the
   one-item level is the only exit. The next level lists the unpaired
   seed first, then the merged pairs in pairing order. A pairing that
   merged nothing (the matching pairs every level of two or more) would
   merge the first two items, so every sink still appears once. *)
let rec reduce ?beta ~centroid ~item ~merge (head, rest) =
  match rest with
  | [] -> head
  | second :: rest' ->
      let items = Array.of_list (head :: rest) in
      let pairing =
        Topology.level_pairing ?beta ~centroid (Array.map item items)
      in
      let merged =
        List.map
          (fun (i, j) -> merge items.(i) items.(j))
          pairing.Topology.pairs
      in
      let level =
        match (pairing.Topology.seed, merged) with
        | Some i, _ -> (items.(i), merged)
        | None, m :: ms -> (m, ms)
        | None, [] -> (merge head second, rest')
      in
      reduce ?beta ~centroid ~item ~merge level

let bottom_up ?beta tech ~buffering lib (s, specs) =
  reduce ?beta
    ~centroid:(Sinks.centroid (s :: specs))
    ~item:(fun n -> { Topology.pos = Trr.center n.arc; delay = n.delay })
    ~merge:(merge_pair tech ~buffering lib)
    (leaf s, List.map leaf specs)

(* Top-down embedding: fix each merge point at the closest point of its
   merge segment to the already-placed parent. *)
let rec embed bu_node (parent : Point.t option) : Ctree.t =
  match bu_node.shape with
  | Leaf s -> Ctree.sink ~name:s.Sinks.name ~pos:s.Sinks.pos ~cap:s.Sinks.cap
  | Node { len1; len2; child1; child2; buffered } ->
      let pos =
        match parent with
        | None -> Trr.center bu_node.arc
        | Some p -> Trr.closest_point bu_node.arc p
      in
      let t1 = embed child1 (Some pos) in
      let t2 = embed child2 (Some pos) in
      let e1 =
        Ctree.edge ~length:(Float.max len1 (Point.manhattan pos t1.Ctree.pos)) t1
      in
      let e2 =
        Ctree.edge ~length:(Float.max len2 (Point.manhattan pos t2.Ctree.pos)) t2
      in
      (match buffered with
      | Some buf -> Ctree.buffer ~pos buf [ e1; e2 ]
      | None -> Ctree.merge ~pos [ e1; e2 ])

(* ------------------------------------------------------------------ *)
(* Bounded-skew DME: subtree delays are intervals.                     *)

type bbu = {
  barc : Trr.t;
  tmin : float;
  tmax : float;
  bcap : float;
  bshape : bshape;
}

and bshape =
  | BLeaf of Sinks.spec
  | BNode of {
      r_lo : float;
      r_hi : float;
      total_l : float;
      bchild1 : bbu;
      bchild2 : bbu;
    }

let bounded_leaf (s : Sinks.spec) =
  {
    barc = Trr.of_point s.Sinks.pos;
    tmin = 0.;
    tmax = 0.;
    bcap = s.Sinks.cap;
    bshape = BLeaf s;
  }

(* Embedding: each merge position is the point of its (fat) region
   closest to the parent; a region point is by construction within
   [r_hi] of child 1's region and [total_l - r_lo] of child 2's, and the
   tracked delay interval covers every wire split with side 1 in
   [r_lo, r_hi] and side 2 in [total_l - r_hi, total_l - r_lo]
   independently. Realized edge lengths are therefore clamped into those
   ranges (clamping up = a short snaked zig; clamping down never cuts
   below the Manhattan distance). *)
let rec bounded_embed node (parent : Point.t option) : Ctree.t =
  match node.bshape with
  | BLeaf s -> Ctree.sink ~name:s.Sinks.name ~pos:s.Sinks.pos ~cap:s.Sinks.cap
  | BNode { r_lo; r_hi; total_l; bchild1; bchild2 } ->
      let pos =
        match parent with
        | None -> Trr.center node.barc
        | Some p -> Trr.closest_point node.barc p
      in
      let t1 = bounded_embed bchild1 (Some pos) in
      let t2 = bounded_embed bchild2 (Some pos) in
      let clamped lo hi d = Float.max d (Float.max lo (Float.min hi d)) in
      let len1 = clamped r_lo r_hi (Point.manhattan pos t1.Ctree.pos) in
      let len2 =
        clamped (total_l -. r_hi) (total_l -. r_lo)
          (Point.manhattan pos t2.Ctree.pos)
      in
      Ctree.merge ~pos
        [ Ctree.edge ~length:len1 t1; Ctree.edge ~length:len2 t2 ]

let synthesize_bounded ?beta ~skew_bound tech specs =
  if not (skew_bound >= 0.) then
    invalid_arg
      (Printf.sprintf
         "Dme.synthesize_bounded: skew bound must be non-negative (got %g)"
         skew_bound);
  match specs with
  | [] -> invalid_arg "Dme.synthesize_bounded: no sinks"
  | s :: rest ->
      let merge a b =
        let m =
          Merge_seg.merge_bounded tech ~skew_bound ~arc1:a.barc ~t1_min:a.tmin
            ~t1_max:a.tmax ~c1:a.bcap ~arc2:b.barc ~t2_min:b.tmin
            ~t2_max:b.tmax ~c2:b.bcap
        in
        {
          barc = m.Merge_seg.bms;
          tmin = m.Merge_seg.bdelay_min;
          tmax = m.Merge_seg.bdelay_max;
          bcap = m.Merge_seg.bcap;
          bshape =
            BNode
              {
                r_lo = m.Merge_seg.r_lo;
                r_hi = m.Merge_seg.r_hi;
                total_l = m.Merge_seg.total_l;
                bchild1 = a;
                bchild2 = b;
              };
        }
      in
      let root =
        reduce ?beta ~centroid:(Sinks.centroid specs)
          ~item:(fun n ->
            {
              Topology.pos = Trr.center n.barc;
              delay = (n.tmin +. n.tmax) /. 2.;
            })
          ~merge
          (bounded_leaf s, List.map bounded_leaf rest)
      in
      bounded_embed root None

let synthesize ?beta tech specs =
  match specs with
  | [] -> invalid_arg "Dme.synthesize: no sinks"
  | s :: rest -> embed (bottom_up ?beta tech ~buffering:None [] (s, rest)) None

let synthesize_buffered ?beta ?(cap_limit = 60e-15) tech lib specs =
  if lib = [] then invalid_arg "Dme.synthesize_buffered: empty buffer library";
  match specs with
  | [] -> invalid_arg "Dme.synthesize_buffered: no sinks"
  | s :: rest ->
      let root = bottom_up ?beta tech ~buffering:(Some cap_limit) lib (s, rest) in
      let tree = embed root None in
      (* Root driver: the largest buffer, placed at the tree root. *)
      let driver = Buffer_lib.largest lib in
      Ctree.buffer ~pos:tree.Ctree.pos driver
        [ Ctree.edge ~length:0. tree ]

(* Distributed-wire Elmore analysis of an embedded tree. *)
let elmore_latency (tech : Circuit.Tech.t) tree =
  let alpha = tech.unit_res and beta = tech.unit_cap in
  (* Downstream capacitance per node (buffers shield). *)
  let rec down (n : Ctree.t) =
    match n.Ctree.kind with
    | Ctree.Sink { cap; _ } -> cap
    | Ctree.Buf b -> Buffer_lib.input_cap tech b
    | Ctree.Merge ->
        List.fold_left
          (fun acc (e : Ctree.edge) ->
            acc +. (beta *. e.Ctree.length) +. down e.Ctree.child)
          0. n.Ctree.children
  in
  let results = ref [] in
  let rec walk (n : Ctree.t) t_here =
    let t_out =
      match n.Ctree.kind with
      | Ctree.Sink { name; _ } ->
          results := (name, t_here) :: !results;
          t_here
      | Ctree.Buf b ->
          let load =
            List.fold_left
              (fun acc (e : Ctree.edge) ->
                acc +. (beta *. e.Ctree.length) +. down_child e)
              0. n.Ctree.children
          in
          t_here +. buffer_delay_estimate tech b ~load
      | Ctree.Merge -> t_here
    in
    List.iter
      (fun (e : Ctree.edge) ->
        let l = e.Ctree.length in
        let wire =
          alpha *. l *. ((beta *. l /. 2.) +. down_child e)
        in
        walk e.Ctree.child (t_out +. wire))
      n.Ctree.children
  and down_child (e : Ctree.edge) = down e.Ctree.child in
  walk tree 0.;
  List.rev !results

let elmore_skew tech tree =
  match List.map snd (elmore_latency tech tree) with
  | [] -> 0.
  | d :: _ as ds ->
      List.fold_left Float.max d ds -. List.fold_left Float.min d ds
