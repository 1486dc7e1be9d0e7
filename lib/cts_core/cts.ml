module Point = Geometry.Point
module Buffer_lib = Circuit.Buffer_lib

let src = Logs.Src.create "cts" ~doc:"Aggressive buffered CTS"

module Log = (val Logs.src_log src : Logs.LOG)

type result = {
  tree : Ctree.t;
  est_latency : float;
  est_skew : float;
  levels : int;
  snaked_wirelength : float;
  inserted_buffers : int;
  detoured_merges : int;
  flippings : int;
}

(* A level item: a subtree port and, for a merged one, the two ports
   its final merge joined (the grandchildren that H-structure handling
   re-pairs one level up). Leaves, and a seed carried up unpaired, keep
   what they had. *)
type item = { port : Port.t; joined : (Port.t * Port.t) option }

(* Synthesis totals, folded on the coordinating domain from the stats
   that merge tasks return. Float addition is not associative, so
   [snaked] adds the merges one by one in the order a sequential run
   commits them, which keeps it bit-identical at every pool size. *)
type totals = { snaked : float; inserted : int; detoured : int; flips : int }

let no_totals = { snaked = 0.; inserted = 0; detoured = 0; flips = 0 }

let add_stats t (s : Merge_routing.stats) =
  {
    t with
    snaked = t.snaked +. s.Merge_routing.snaked;
    inserted = t.inserted + s.Merge_routing.inserted_buffers;
    detoured =
      (if s.Merge_routing.detoured then t.detoured + 1 else t.detoured);
  }

let as_item (p : Port.t) = { Topology.pos = Port.pos p; delay = p.Port.delay }

(* Both H-structure methods choose among the three pairings of the four
   grandchildren (Sec. 4.1.2, Fig. 4.2): a swap replaces the original
   pairing only when [lt] calls it better, and the first swap wins
   unless the second is better still. [None] keeps the original. *)
let choose lt ~original (c1, p1) (c2, p2) =
  if lt c1 original && not (lt c2 c1) then Some p1
  else if lt c2 original then Some p2
  else None

(* One pair task: H-structure handling, then the pair's merge. Returns
   the merged item, the stats of its committed merges in execution
   order, and whether the pair was re-paired. It writes no shared
   state; the coordinator folds what it returns. *)
let merge_pair ~blockages dl (cfg : Cts_config.t) x y =
  let merge a b = Merge_routing.merge ~blockages dl cfg a b in
  let keep = (x.port, y.port, [], false) in
  let a, b, committed, flipped =
    match (cfg.Cts_config.hstructure, x.joined, y.joined) with
    | Cts_config.H_none, _, _ | _, None, _ | _, _, None -> keep
    | Cts_config.H_reestimate, Some (a1, a2), Some (b1, b2) -> (
        (* Method 1: pick the pairing whose worse edge cost (Eq. 4.1) is
           lowest; only reroute when it differs from the original. *)
        let beta = cfg.Cts_config.topology_beta in
        let cost p q = Topology.edge_cost ~beta (as_item p) (as_item q) in
        (* "Strictly better" must mean better beyond rounding noise:
           symmetric sink placements yield mathematically equal pairing
           costs that differ by an ulp depending on evaluation order, and
           a raw [<] would flip (and reroute) on such phantom wins. *)
        let lt x y = Numerics.Float_cmp.definitely_lt x y in
        match
          choose lt
            ~original:(Float.max (cost a1 a2) (cost b1 b2))
            (Float.max (cost a1 b1) (cost a2 b2), ((a1, b1), (a2, b2)))
            (Float.max (cost a1 b2) (cost a2 b1), ((a1, b2), (a2, b1)))
        with
        | None -> keep
        | Some ((p1, q1), (p2, q2)) ->
            (* The second pair merges first: this order fixes the
               snaking sum. *)
            let m2, s2 = merge p2 q2 in
            let m1, s1 = merge p1 q1 in
            (m1, m2, [ s2; s1 ], true))
    | Cts_config.H_correct, Some (a1, a2), Some (b1, b2) -> (
        (* Method 2: actually merge-route every pairing and keep the one
           with the lowest worse skew. These merges are exploratory:
           their stats are not committed. *)
        let skew_of (p : Port.t) (q : Port.t) =
          Float.max p.Port.skew_est q.Port.skew_est
        in
        let m_11 = fst (merge a1 b1) in
        let m_22 = fst (merge a2 b2) in
        let m_12 = fst (merge a1 b2) in
        let m_21 = fst (merge a2 b1) in
        (* Skews of symmetric pairings are mathematically equal (often
           exactly zero) but land at different residual magnitudes, so a
           relative test alone is not enough: 9e-15 vs 9e-16 seconds is a
           10x "improvement" that means nothing. The residuals are set by
           the balancer's quantization (0.5 um buffer steps, 1e-3 um
           snaking bisection), which is well below 0.1 ps of skew — so
           differences under that floor are estimator noise, not wins. *)
        let lt x y = Numerics.Float_cmp.definitely_lt ~abs:1e-13 x y in
        match
          choose lt
            ~original:(skew_of x.port y.port)
            (skew_of m_11 m_22, (m_11, m_22))
            (skew_of m_12 m_21, (m_12, m_21))
        with
        | None -> keep
        | Some (m1, m2) -> (m1, m2, [], true))
  in
  let port, s = merge a b in
  ({ port; joined = Some (a, b) }, committed @ [ s ], flipped)

let leaf_port (cfg : Cts_config.t) (s : Sinks.spec) =
  let offset =
    Option.value ~default:0.
      (List.assoc_opt s.Sinks.name cfg.Cts_config.sink_offsets)
  in
  Port.of_sink ~offset s

(* ------------------------------------------------------------------ *)
(* Invariant checking                                                  *)

let verify_tree dl (cfg : Cts_config.t) tree =
  let structure = Ctree_check.structure ~canonical_ids:true tree in
  (* The electrical sections walk a sound tree from the source driver;
     on any other they would measure nothing (or raise), so the problems
     found so far are the verdict. *)
  match (tree.Ctree.kind, structure) with
  | (Ctree.Merge | Ctree.Sink _), _ ->
      Ctree_check.Root_not_buffer { id = tree.Ctree.id } :: structure
  | Ctree.Buf _, _ :: _ -> structure
  | Ctree.Buf _, [] ->
      let timing, got =
        Ctree_check.timing dl cfg ~source_slew:Ctree.source_slew tree
      in
      let report = Timing.analyze_tree dl cfg tree in
      (* The reference reports arrivals net of prescribed offsets; the
         checker accumulates absolute latencies, so add them back. *)
      let offset name =
        Option.value ~default:0.
          (List.assoc_opt name cfg.Cts_config.sink_offsets)
      in
      let expected =
        List.map (fun (n, d) -> (n, d +. offset n)) report.Timing.sink_delays
      in
      timing @ Ctree_check.compare_latencies ~got ~expected

(* Per-level check: every merged subtree must already satisfy the
   structural and electrical invariants. Ids are only canonicalized by
   [finalize], and stages below a merge root are driven at the target
   slew the construction assumed. *)
let check_level dl (cfg : Cts_config.t) items =
  let violations =
    List.concat_map
      (fun { port; _ } ->
        let node = port.Port.node in
        match node.Ctree.kind with
        | Ctree.Sink _ -> []
        | Ctree.Merge | Ctree.Buf _ ->
            Ctree_check.structure ~canonical_ids:false node
            @ fst
                (Ctree_check.timing dl cfg
                   ~source_slew:cfg.Cts_config.slew_target node))
      (Array.to_list items)
  in
  match violations with
  | [] -> ()
  | vs -> raise (Ctree_check.Check_failed vs)

(* Shared root finalization: plant the source driver and canonicalize
   node ids (preorder renumbering) so the finished tree — and therefore
   its netlist — is independent of which domains built its nodes. With
   [check], verify the finished tree. *)
let finalize ~check dl (cfg : Cts_config.t) t (root_port : Port.t) ~levels =
  let driver = Buffer_lib.largest (Delaylib.buffers dl) in
  let intrinsic =
    (Delaylib.eval_single dl ~drive:driver ~load_cap:root_port.Port.stub_load
       ~input_slew:cfg.Cts_config.slew_target ~length:root_port.Port.stub_len)
      .Delaylib.buf_delay
  in
  let tree =
    Ctree.renumber
      (Ctree.buffer ~pos:root_port.Port.node.Ctree.pos driver
         [ Ctree.edge ~length:0. root_port.Port.node ])
  in
  let res =
    {
      tree;
      est_latency = root_port.Port.delay +. intrinsic;
      est_skew = root_port.Port.skew_est;
      levels;
      snaked_wirelength = t.snaked;
      inserted_buffers = t.inserted;
      detoured_merges = t.detoured;
      flippings = t.flips;
    }
  in
  (if check then
     match verify_tree dl cfg tree with
     | [] -> ()
     | vs -> raise (Ctree_check.Check_failed vs));
  res

(* The prologue both entry points share: sink and config checks, the
   default pool, and the span table. The table is built here on the
   coordinator: pool tasks only read it, and each synthesis counts one
   build whatever ran before it. *)
let prologue who ?config ?pool dl specs =
  (match Sinks.validate specs with
  | [] -> ()
  | errs -> invalid_arg (who ^ ": " ^ String.concat "; " errs));
  let cfg = match config with Some c -> c | None -> Cts_config.default dl in
  (match Cts_config.validate cfg with
  | [] -> ()
  | errs -> invalid_arg (who ^ ": invalid config: " ^ String.concat "; " errs));
  let pool = match pool with Some p -> p | None -> Parallel.default_pool () in
  Run.build_span_table dl cfg;
  (cfg, pool)

let synthesize_bisection ?config ?(blockages = Blockage.empty) ?pool
    ?(check = false) dl specs =
  let cfg, pool = prologue "Cts.synthesize_bisection" ?config ?pool dl specs in
  (* Fork the recursion onto the pool near the root, where subtrees are
     big; below [par_levels] the task grain is too fine to pay off. *)
  let par_levels = if Parallel.size pool <= 1 then 0 else 3 in
  (* Recursive median bisection along the longer bounding-box axis,
     over a sink array ([Sinks.validate] guarantees at least one sink;
     the halves of two or more are never empty). Returns the subtree
     port, the deepest level reached, and the stats of its merges in
     execution order (left subtree, right subtree, own merge), which
     the caller folds in that order at every pool size. *)
  let rec go specs level =
    let n = Array.length specs in
    if n <= 1 then (leaf_port cfg specs.(0), level, [])
    else begin
      let bbox = Sinks.bbox (Array.to_list specs) in
      let horizontal =
        Geometry.Bbox.width bbox >= Geometry.Bbox.height bbox
      in
      let key (s : Sinks.spec) =
        if horizontal then s.Sinks.pos.Point.x else s.Sinks.pos.Point.y
      in
      let sorted = Array.copy specs in
      Array.stable_sort (fun a b -> Float.compare (key a) (key b)) sorted;
      let halves = [| Array.sub sorted 0 (n / 2); Array.sub sorted (n / 2) (n - (n / 2)) |] in
      let sub =
        if level < par_levels && n >= 8 then
          Parallel.map pool (fun side -> go side (level + 1)) halves
        else Array.map (fun side -> go side (level + 1)) halves
      in
      let (pl, dl_left, st_left) = sub.(0) and (pr, dl_right, st_right) = sub.(1) in
      let port, s = Merge_routing.merge ~blockages dl cfg pl pr in
      (port, Int.max dl_left dl_right, st_left @ st_right @ [ s ])
    end
  in
  let root_port, depth, stats =
    Obs.phase "bisection" (fun () -> go (Array.of_list specs) 0)
  in
  finalize ~check dl cfg
    (List.fold_left add_stats no_totals stats)
    root_port ~levels:depth

(* One level: pair the items (Sec. 4.1.1), merge every pair, and fold
   the pair tasks' results in pair order. Returns the next level's
   items — the seed first, then the merged pairs — and the totals. *)
let merge_level ~blockages dl (cfg : Cts_config.t) pool ~centroid ~level items
    t =
  let inserted0 = t.inserted in
  let merges0 = Obs.read Obs.Merges_routed in
  let dp_cands0 = Obs.read Obs.Dp_candidates in
  let pairing =
    Topology.level_pairing ~beta:cfg.Cts_config.topology_beta ~centroid
      (Array.map (fun it -> as_item it.port) items)
  in
  (* Every pair of a level is independent: fan the merge-routing out
     across the pool. Each task returns what it produced and the fold
     below runs in pair order, so the result — tree structure, netlist
     and counters — is bit-identical to a sequential run.

     The fan-out is chunked: one pool task per contiguous slice of the
     pair array, not per pair. A single merge is far smaller than a
     task's fixed cost (closure + result allocation, queue traffic,
     per-task Obs accumulator swap), so wide levels used to drown in
     per-task overhead; ~4 chunks per domain keeps load balance without
     that. Chunks partition the pair array in order and each task walks
     its slice sequentially, so both the fold below and the pool's
     task-index-order Obs delta absorption see exact pair order. *)
  let pairs = Array.of_list pairing.Topology.pairs in
  let npairs = Array.length pairs in
  let nchunks = Int.min npairs (Int.max 1 (4 * Parallel.size pool)) in
  let merge_chunk c =
    let lo = c * npairs / nchunks and hi = (c + 1) * npairs / nchunks in
    Array.init (hi - lo) (fun k ->
        let i, j = pairs.(lo + k) in
        merge_pair ~blockages dl cfg items.(i) items.(j))
  in
  let merged =
    Array.concat
      (Array.to_list (Parallel.map pool merge_chunk (Array.init nchunks Fun.id)))
  in
  let t =
    Array.fold_left
      (fun t (_, stats, flipped) ->
        let t = List.fold_left add_stats t stats in
        if flipped then { t with flips = t.flips + 1 } else t)
      t merged
  in
  let seed =
    match pairing.Topology.seed with Some i -> [| items.(i) |] | None -> [||]
  in
  let next = Array.append seed (Array.map (fun (it, _, _) -> it) merged) in
  Obs.hist_add Obs.Buffers_per_level ~bucket:level (t.inserted - inserted0);
  Obs.hist_add Obs.Merges_per_level ~bucket:level
    (Obs.read Obs.Merges_routed - merges0);
  Obs.hist_add Obs.Dp_candidates_per_level ~bucket:level
    (Obs.read Obs.Dp_candidates - dp_cands0);
  Log.debug (fun m ->
      m "level %d: %d -> %d subtrees" level (Array.length items)
        (Array.length next));
  (next, t)

let synthesize ?config ?(blockages = Blockage.empty) ?pool ?(check = false) dl
    specs =
  let cfg, pool = prologue "Cts.synthesize" ?config ?pool dl specs in
  let centroid = Sinks.centroid specs in
  (* Non-empty ([Sinks.validate]); each level at least halves it. *)
  let rec go level items t =
    if Array.length items <= 1 then
      finalize ~check dl cfg t items.(0).port ~levels:level
    else
      let level = level + 1 in
      let items, t =
        Obs.phase (Printf.sprintf "level %d" level) @@ fun () ->
        let items, t =
          merge_level ~blockages dl cfg pool ~centroid ~level items t
        in
        if check then check_level dl cfg items;
        (items, t)
      in
      go level items t
  in
  go 0
    (Array.of_list
       (List.map (fun s -> { port = leaf_port cfg s; joined = None }) specs))
    no_totals
