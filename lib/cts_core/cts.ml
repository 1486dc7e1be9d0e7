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

type state = {
  dl : Delaylib.t;
  cfg : Cts_config.t;
  blockages : Blockage.t;
  children : (int, Port.t * Port.t) Hashtbl.t;
  mutable snaked : float;
  mutable inserted : int;
  mutable detoured : int;
  mutable flips : int;
}

(* Parallel merges may not touch the shared [state]: each merge task
   writes an ordered log instead, and the main domain replays the logs
   in pair order. Replaying the individual float increments (rather than
   adding per-task subtotals) keeps the accumulated counters bit-exact:
   float addition is not associative, so the sequence of additions must
   match the sequential flow op for op. *)
type entry =
  | Child of int * (Port.t * Port.t)  (* children-table insertion *)
  | Stats of Merge_routing.stats  (* one committed merge *)
  | Flip  (* one H-structure correction *)

type scratch = { st : state; mutable log : entry list (* newest first *) }

(* Replay-log discipline: pool tasks never touch [state] directly; they
   append to a task-private [scratch] log which the coordinator replays
   in canonical pair order (see [apply_entries]). *)
let[@cts.guarded "replay-log"] record sc e = sc.log <- e :: sc.log

(* Runs on the coordinating domain only, after the parallel section. *)
let[@cts.guarded "replay-log"] apply_entries st entries =
  List.iter
    (function
      | Child (id, pair) -> Hashtbl.replace st.children id pair
      | Stats s ->
          st.snaked <- st.snaked +. s.Merge_routing.snaked;
          st.inserted <- st.inserted + s.Merge_routing.inserted_buffers;
          if s.Merge_routing.detoured then st.detoured <- st.detoured + 1
      | Flip -> st.flips <- st.flips + 1)
    entries

(* Log in execution order. *)
let entries_of sc = List.rev sc.log

(* Merge two ports; [commit] controls whether statistics are recorded
   (H-structure correction explores merges it may discard). *)
let do_merge sc ~commit a b =
  let port, s =
    Merge_routing.merge ~blockages:sc.st.blockages sc.st.dl sc.st.cfg a b
  in
  record sc (Child (port.Port.node.Ctree.id, (a, b)));
  if commit then record sc (Stats s);
  port

(* Grandchildren lookups hit entries from the previous level (already in
   the shared table) — the local log is checked first only for merges
   this very task performed. *)
let grandchildren sc (p : Port.t) =
  let id = p.Port.node.Ctree.id in
  let rec local = function
    | Child (i, pair) :: _ when i = id -> Some pair
    | _ :: tl -> local tl
    | [] -> Hashtbl.find_opt sc.st.children id
  in
  local sc.log

let as_item (p : Port.t) = { Topology.pos = Port.pos p; delay = p.Port.delay }

(* H-structure handling for a pair about to merge (Sec. 4.1.2, Fig. 4.2):
   both methods re-examine the three pairings of the four grandchildren. *)
let hstructure sc a b =
  match (sc.st.cfg.Cts_config.hstructure, grandchildren sc a, grandchildren sc b) with
  | Cts_config.H_none, _, _ | _, None, _ | _, _, None -> (a, b)
  | Cts_config.H_reestimate, Some (a1, a2), Some (b1, b2) ->
      (* Method 1: pick the pairing whose worse edge cost (Eq. 4.1) is
         lowest; only reroute when it differs from the original. *)
      let beta = sc.st.cfg.Cts_config.topology_beta in
      let cost x y = Topology.edge_cost ~beta (as_item x) (as_item y) in
      let original = Float.max (cost a1 a2) (cost b1 b2) in
      let swap1 = Float.max (cost a1 b1) (cost a2 b2) in
      let swap2 = Float.max (cost a1 b2) (cost a2 b1) in
      (* "Strictly better" must mean better beyond rounding noise:
         symmetric sink placements yield mathematically equal pairing
         costs that differ by an ulp depending on evaluation order, and
         a raw [<] would flip (and reroute) on such phantom wins. *)
      let ( <! ) x y = Numerics.Float_cmp.definitely_lt x y in
      if swap1 <! original && not (swap2 <! swap1) then begin
        record sc Flip;
        (do_merge sc ~commit:true a1 b1, do_merge sc ~commit:true a2 b2)
      end
      else if swap2 <! original then begin
        record sc Flip;
        (do_merge sc ~commit:true a1 b2, do_merge sc ~commit:true a2 b1)
      end
      else (a, b)
  | Cts_config.H_correct, Some (a1, a2), Some (b1, b2) ->
      (* Method 2: actually merge-route every pairing and keep the one
         with the lowest worse skew. *)
      let skew_of (x : Port.t) (y : Port.t) =
        Float.max x.Port.skew_est y.Port.skew_est
      in
      let m_ab = (a, b) in
      let m_11 = do_merge sc ~commit:false a1 b1 in
      let m_22 = do_merge sc ~commit:false a2 b2 in
      let m_12 = do_merge sc ~commit:false a1 b2 in
      let m_21 = do_merge sc ~commit:false a2 b1 in
      let original = skew_of a b in
      let swap1 = skew_of m_11 m_22 in
      let swap2 = skew_of m_12 m_21 in
      (* Skews of symmetric pairings are mathematically equal (often
         exactly zero) but land at different residual magnitudes, so a
         relative test alone is not enough: 9e-15 vs 9e-16 seconds is a
         10x "improvement" that means nothing. The residuals are set by
         the balancer's quantization (0.5 um buffer steps, 1e-3 um
         snaking bisection), which is well below 0.1 ps of skew — so
         differences under that floor are estimator noise, not wins. *)
      let ( <! ) x y = Numerics.Float_cmp.definitely_lt ~abs:1e-13 x y in
      if swap1 <! original && not (swap2 <! swap1) then begin
        record sc Flip;
        (m_11, m_22)
      end
      else if swap2 <! original then begin
        record sc Flip;
        (m_12, m_21)
      end
      else m_ab

(* Shared root finalization: plant the source driver and canonicalize
   node ids (preorder renumbering) so the finished tree — and therefore
   its netlist — is independent of which domains built its nodes. *)
let finalize dl (cfg : Cts_config.t) st (root_port : Port.t) ~levels =
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
  {
    tree;
    est_latency = root_port.Port.delay +. intrinsic;
    est_skew = root_port.Port.skew_est;
    levels;
    snaked_wirelength = st.snaked;
    inserted_buffers = st.inserted;
    detoured_merges = st.detoured;
    flippings = st.flips;
  }

let fresh_state dl cfg blockages =
  {
    dl;
    cfg;
    blockages;
    children = Hashtbl.create 256;
    snaked = 0.;
    inserted = 0;
    detoured = 0;
    flips = 0;
  }

let validated who cfg =
  match Cts_config.validate cfg with
  | [] -> cfg
  | errs -> invalid_arg (who ^ ": invalid config: " ^ String.concat "; " errs)

let leaf_port (cfg : Cts_config.t) (s : Sinks.spec) =
  let offset =
    Option.value ~default:0.
      (List.assoc_opt s.Sinks.name cfg.Cts_config.sink_offsets)
  in
  Port.of_sink ~offset s

(* ------------------------------------------------------------------ *)
(* Invariant checking (Ctree_check glue)                               *)

let check_env ~source_slew dl (cfg : Cts_config.t) =
  (* Trusted input-slew range: [Delaylib.eval_single] clamps into the
     characterized fit domain, so an edge faster than [lo] is evaluated
     at [lo] — a pessimistic, therefore safe, saturation. Above [hi]
     the same clamp would under-report delay and slew, so the top of
     the fit domain is a hard bound. *)
  let _, hi = Delaylib.slew_domain dl in
  {
    Ctree_check.stage =
      (fun ~drive ~input_slew root ->
        List.map
          (fun (e : Timing.stage_end) ->
            match e.Timing.reached with
            | Timing.At_sink { node; _ } | Timing.At_buffer { node; _ } ->
                (node, e.Timing.delay, e.Timing.slew))
          (Timing.analyze_stage dl ~drive ~input_slew root));
    default_driver = cfg.Cts_config.assumed_driver;
    slew_limit = cfg.Cts_config.slew_limit;
    slew_range = (0., hi);
    source_slew;
  }

let verify_tree dl (cfg : Cts_config.t) tree =
  let env = check_env ~source_slew:Ctree.source_slew dl cfg in
  let report = Timing.analyze_tree dl cfg tree in
  (* The reference reports arrivals net of prescribed offsets; the
     checker accumulates absolute latencies, so add them back. *)
  let offset name =
    Option.value ~default:0. (List.assoc_opt name cfg.Cts_config.sink_offsets)
  in
  let expected =
    List.map (fun (n, d) -> (n, d +. offset n)) report.Timing.sink_delays
  in
  Ctree_check.verify ~expected_latencies:expected env tree

(* Per-level check: every merged subtree must already satisfy the
   structural and electrical invariants. Ids are only canonicalized by
   [finalize], and stages below a merge root are driven at the target
   slew the construction assumed. *)
let check_level dl (cfg : Cts_config.t) ports =
  let env = check_env ~source_slew:cfg.Cts_config.slew_target dl cfg in
  let violations =
    List.concat_map
      (fun (p : Port.t) ->
        match p.Port.node.Ctree.kind with
        | Ctree.Sink _ -> []
        | Ctree.Merge | Ctree.Buf _ ->
            Ctree_check.structure ~canonical_ids:false p.Port.node
            @ fst (Ctree_check.timing env p.Port.node))
      ports
  in
  match violations with
  | [] -> ()
  | vs -> raise (Ctree_check.Check_failed vs)

let check_final dl cfg res =
  match verify_tree dl cfg res.tree with
  | [] -> ()
  | vs -> raise (Ctree_check.Check_failed vs)

let synthesize_bisection ?config ?(blockages = Blockage.empty) ?pool
    ?(check = false) dl specs =
  (match Sinks.validate specs with
  | [] -> ()
  | errs ->
      invalid_arg ("Cts.synthesize_bisection: " ^ String.concat "; " errs));
  let cfg = match config with Some c -> c | None -> Cts_config.default dl in
  let cfg = validated "Cts.synthesize_bisection" cfg in
  let pool = match pool with Some p -> p | None -> Parallel.default_pool () in
  Run.build_span_table dl cfg;
  let st = fresh_state dl cfg blockages in
  (* Fork the recursion onto the pool near the root, where subtrees are
     big; below [par_levels] the task grain is too fine to pay off. *)
  let par_levels = if Parallel.size pool <= 1 then 0 else 3 in
  (* Recursive median bisection along the longer bounding-box axis,
     over a sink array ([Sinks.validate] guarantees at least one sink;
     the halves of two or more are never empty). Returns the subtree
     port, the deepest level reached, and the merge log in execution
     order (left subtree, right subtree, own merge) — replayed by the
     caller so the shared counters accumulate in the same deterministic
     order at every pool size. *)
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
      let (pl, dl_left, log_left) = sub.(0) and (pr, dl_right, log_right) = sub.(1) in
      let sc = { st; log = [] } in
      let port = do_merge sc ~commit:true pl pr in
      (port, Int.max dl_left dl_right, log_left @ log_right @ entries_of sc)
    end
  in
  let root_port, depth, log =
    Obs.phase "bisection" (fun () -> go (Array.of_list specs) 0)
  in
  apply_entries st log;
  let res = finalize dl cfg st root_port ~levels:depth in
  if check then check_final dl cfg res;
  res

let synthesize ?config ?(blockages = Blockage.empty) ?pool ?(check = false) dl
    specs =
  (match Sinks.validate specs with
  | [] -> ()
  | errs -> invalid_arg ("Cts.synthesize: " ^ String.concat "; " errs));
  let cfg = match config with Some c -> c | None -> Cts_config.default dl in
  let cfg = validated "Cts.synthesize" cfg in
  let pool = match pool with Some p -> p | None -> Parallel.default_pool () in
  (* Built here on the coordinator: pool tasks only read the table, and
     each synthesis counts one build whatever ran before it. *)
  Run.build_span_table dl cfg;
  let st = fresh_state dl cfg blockages in
  let centroid = Sinks.centroid specs in
  (* Non-empty ([Sinks.validate]); each level at least halves it. *)
  let ports = ref (Array.of_list (List.map (leaf_port cfg) specs)) in
  let levels = ref 0 in
  while Array.length !ports > 1 do
    incr levels;
    Obs.phase (Printf.sprintf "level %d" !levels) @@ fun () ->
    let inserted0 = st.inserted in
    let merges0 = Obs.read Obs.Merges_routed in
    let dp_cands0 = Obs.read Obs.Dp_candidates in
    let items = !ports in
    let t_items = Array.map as_item items in
    let pairing =
      Topology.level_pairing ~beta:cfg.Cts_config.topology_beta ~centroid
        t_items
    in
    (* Every pair of a level is independent: fan the merge-routing out
       across the pool. Tasks read the shared state (children table,
       delay library, span table) but defer all writes to their logs;
       the replay below happens in pair order, making the result — tree
       structure, netlist and counters — bit-identical to a sequential
       run.

       The fan-out is chunked: one pool task per contiguous slice of
       the pair array, not per pair. A single merge is far smaller than
       a task's fixed cost (closure + result allocation, queue traffic,
       per-task Obs accumulator swap), so wide levels used to drown in
       per-task overhead; ~4 chunks per domain keeps load balance
       without that. Determinism is untouched: chunks partition the
       pair array in order and each task walks its slice sequentially
       with a per-pair scratch, so both the log replay below and the
       pool's task-index-order Obs delta absorption still see exact
       pair order. *)
    let pairs = Array.of_list pairing.Topology.pairs in
    let npairs = Array.length pairs in
    let nchunks = Int.min npairs (Int.max 1 (4 * Parallel.size pool)) in
    let merge_chunk c =
      let lo = c * npairs / nchunks and hi = (c + 1) * npairs / nchunks in
      Array.init (hi - lo) (fun k ->
          let i, j = pairs.(lo + k) in
          let sc = { st; log = [] } in
          let a, b = hstructure sc items.(i) items.(j) in
          let port = do_merge sc ~commit:true a b in
          (port, entries_of sc))
    in
    let merged = Parallel.map pool merge_chunk (Array.init nchunks Fun.id) in
    let next = ref [] in
    (match pairing.Topology.seed with
    | Some i -> next := items.(i) :: !next
    | None -> ());
    Array.iter
      (Array.iter (fun (port, log) ->
           apply_entries st log;
           next := port :: !next))
      merged;
    Obs.hist_add Obs.Buffers_per_level ~bucket:!levels (st.inserted - inserted0);
    Obs.hist_add Obs.Merges_per_level ~bucket:!levels
      (Obs.read Obs.Merges_routed - merges0);
    Obs.hist_add Obs.Dp_candidates_per_level ~bucket:!levels
      (Obs.read Obs.Dp_candidates - dp_cands0);
    Log.debug (fun m ->
        m "level %d: %d -> %d subtrees" !levels (Array.length items)
          (List.length !next));
    ports := Array.of_list (List.rev !next);
    if check then check_level dl cfg (Array.to_list !ports)
  done;
  let root_port = !ports.(0) in
  let res = finalize dl cfg st root_port ~levels:!levels in
  if check then check_final dl cfg res;
  res
