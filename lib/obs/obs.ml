(* Deterministic observability layer. See obs.mli for the contract.

   Storage model: every domain owns a stack of accumulators in
   domain-local storage. The bottom element is the domain's base
   accumulator — on the main domain, the process totals. Parallel.map
   brackets each pool task with [task_enter]/[task_leave], so increments
   and spans recorded while a task runs (on whichever domain picked it
   up) land in a task-private accumulator; the pool absorbs the
   resulting deltas into the caller in task-index order. Worker-domain
   base accumulators exist but stay empty: workers only ever record
   inside tasks. *)

type counter =
  | Maze_selects
  | Maze_bins_evaluated
  | Snake_stages
  | Bisection_iters
  | Merges_routed
  | Placer_adjusted
  | Placer_infeasible
  | Run_evals
  | Run_buffers_placed
  | Dp_evals
  | Dp_candidates
  | Dp_pruned
  | Dp_fallbacks
  | Span_cache_hits
  | Span_cache_misses
  | Delay_evals_single
  | Delay_evals_branch
  | Char_sims
  | Timing_stages
  | Timing_analyses
  | Topology_edge_costs
  | Topology_pairings
  | Pool_spawn_shortfall

type histogram = Buffers_per_level | Merges_per_level | Dp_candidates_per_level

let counter_index = function
  | Maze_selects -> 0
  | Maze_bins_evaluated -> 1
  | Snake_stages -> 2
  | Bisection_iters -> 3
  | Merges_routed -> 4
  | Placer_adjusted -> 5
  | Placer_infeasible -> 6
  | Run_evals -> 7
  | Run_buffers_placed -> 8
  | Dp_evals -> 9
  | Dp_candidates -> 10
  | Dp_pruned -> 11
  | Dp_fallbacks -> 12
  | Span_cache_hits -> 13
  | Span_cache_misses -> 14
  | Delay_evals_single -> 15
  | Delay_evals_branch -> 16
  | Char_sims -> 17
  | Timing_stages -> 18
  | Timing_analyses -> 19
  | Topology_edge_costs -> 20
  | Topology_pairings -> 21
  | Pool_spawn_shortfall -> 22

let n_counters = 23

let all_counters =
  [
    Maze_selects; Maze_bins_evaluated; Snake_stages; Bisection_iters;
    Merges_routed; Placer_adjusted;
    Placer_infeasible; Run_evals; Run_buffers_placed; Dp_evals; Dp_candidates;
    Dp_pruned; Dp_fallbacks; Span_cache_hits; Span_cache_misses;
    Delay_evals_single; Delay_evals_branch; Char_sims; Timing_stages;
    Timing_analyses; Topology_edge_costs; Topology_pairings;
    Pool_spawn_shortfall;
  ]

let counter_name = function
  | Maze_selects -> "maze.selects"
  | Maze_bins_evaluated -> "maze.bins_evaluated"
  | Snake_stages -> "merge.snake_stages"
  | Bisection_iters -> "merge.bisection_iters"
  | Merges_routed -> "merge.merges_routed"
  | Placer_adjusted -> "place.adjusted"
  | Placer_infeasible -> "place.infeasible"
  | Run_evals -> "run.evals"
  | Run_buffers_placed -> "run.buffers_placed"
  | Dp_evals -> "dp.evals"
  | Dp_candidates -> "dp.candidates"
  | Dp_pruned -> "dp.pruned"
  | Dp_fallbacks -> "dp.fallbacks"
  | Span_cache_hits -> "run.span_cache_hits"
  | Span_cache_misses -> "run.span_cache_misses"
  | Delay_evals_single -> "delaylib.evals_single"
  | Delay_evals_branch -> "delaylib.evals_branch"
  | Char_sims -> "delaylib.char_sims"
  | Timing_stages -> "timing.stages"
  | Timing_analyses -> "timing.analyses"
  | Topology_edge_costs -> "topology.edge_costs"
  | Topology_pairings -> "topology.pairings"
  | Pool_spawn_shortfall -> "parallel.spawn_shortfall"

let all_histograms =
  [ Buffers_per_level; Merges_per_level; Dp_candidates_per_level ]

let histogram_index = function
  | Buffers_per_level -> 0
  | Merges_per_level -> 1
  | Dp_candidates_per_level -> 2

let histogram_name = function
  | Buffers_per_level -> "buffers_per_level"
  | Merges_per_level -> "merges_per_level"
  | Dp_candidates_per_level -> "dp_candidates_per_level"

(* ------------------------------------------------------------------ *)
(* Gauges                                                              *)

(* Cache-effectiveness gauges. They accumulate like counters through
   [gauge_add] and are absorbed from task deltas in task-index order,
   so their totals are as schedule-independent as the counters'. *)
type gauge = Dp_memo_slots | Dp_memo_filled

let gauge_index = function Dp_memo_slots -> 0 | Dp_memo_filled -> 1
let n_gauges = 2
let all_gauges = [ Dp_memo_slots; Dp_memo_filled ]

let gauge_name = function
  | Dp_memo_slots -> "dp.memo_slots"
  | Dp_memo_filled -> "dp.memo_filled"

(* ------------------------------------------------------------------ *)
(* Storage                                                             *)

type gc_delta = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

type span = {
  span_id : int;
  parent_id : int;
  depth : int;
  domain : int;
  span_name : string;
  t_start : float;
  t_stop : float;
  gc : gc_delta option;
}

(* Histogram cells are keyed (histogram index, bucket); completed spans
   are newest first. *)
type acc = {
  counts : int array;
  gauges : int array;
  hists : (int * int, int) Hashtbl.t;
  mutable spans : span list;
}

let make_acc () =
  {
    counts = Array.make n_counters 0;
    gauges = Array.make n_gauges 0;
    hists = Hashtbl.create 16;
    spans = [];
  }

(* A domain's accumulators: the active one on top of those it will be
   absorbed into. The base accumulator is the last of [below] (or [top]
   itself), so the stack is never empty. *)
type stack = { top : acc; below : acc list }

let stack : stack ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref { top = make_acc (); below = [] })

let current () = !(Domain.DLS.get stack).top

(* Read without synchronization on the hot path: the flag only changes
   on the main domain while no pool job is in flight, and a momentarily
   stale read merely skips or takes one increment of a layer that is
   being toggled — synthesis results never depend on it. *)
let enabled_flag = ref false

let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)

let[@cts.guarded "domain-local"] incr ?(n = 1) c =
  if !enabled_flag then begin
    let a = current () in
    let i = counter_index c in
    a.counts.(i) <- a.counts.(i) + n
  end

let[@cts.guarded "domain-local"] hist_add h ~bucket n =
  if !enabled_flag && n <> 0 then begin
    let a = current () in
    let key = (histogram_index h, bucket) in
    let prev =
      match Hashtbl.find_opt a.hists key with Some v -> v | None -> 0
    in
    Hashtbl.replace a.hists key (prev + n)
  end

let read c = if !enabled_flag then (current ()).counts.(counter_index c) else 0

let[@cts.guarded "domain-local"] gauge_add g n =
  if !enabled_flag && n <> 0 then begin
    let a = current () in
    let i = gauge_index g in
    a.gauges.(i) <- a.gauges.(i) + n
  end

let gauge_read g =
  if !enabled_flag then (current ()).gauges.(gauge_index g) else 0

(* ------------------------------------------------------------------ *)
(* Phases (hierarchical spans)                                         *)

(* The domain obs.ml was linked on — process startup runs on the initial
   domain, so this is the main domain's id. GC deltas are recorded only
   for spans that run here: worker-domain minor heaps measure pool
   internals, not synthesis phases, and mixing them would make the
   numbers depend on task placement. *)
let main_domain : int = (Domain.self () :> int)

(* Fresh span ids. Monotone per process run; [reset] rewinds so
   repeated measured runs in one process produce comparable trees. *)
let span_ids = Atomic.make 0

let[@cts.guarded "atomic"] next_span_id () = Atomic.fetch_and_add span_ids 1

(* Per-domain stack of currently-open spans: phases nest by pushing a
   frame, and pool tasks seed a worker's stack with the submitting
   coordinator frame so their spans graft onto the coordinator's tree. *)
type frame = { f_id : int; f_depth : int }

let open_spans : frame list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

(* A completed span joins the active accumulator: a task's spans travel
   in its delta with its counters. *)
let[@cts.guarded "domain-local"] record_span s =
  let a = current () in
  a.spans <- s :: a.spans

let gc_delta_of (g0 : Gc.stat) (g1 : Gc.stat) =
  {
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_words = g1.Gc.major_words -. g0.Gc.major_words;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
  }

let[@cts.guarded "domain-local"] push_frame fr =
  let st = Domain.DLS.get open_spans in
  st := fr :: !st

(* Pop exactly the frame we pushed: an exception in a nested phase that
   escaped its own Fun.protect cannot exist (phase always pops in its
   finalizer), so a simple id match suffices and a mismatch is a bug we
   tolerate by leaving the stack alone. *)
let[@cts.guarded "domain-local"] pop_frame id =
  let st = Domain.DLS.get open_spans in
  match !st with fr :: rest when fr.f_id = id -> st := rest | _ -> ()

let current_frame () =
  match !(Domain.DLS.get open_spans) with [] -> None | fr :: _ -> Some fr

let phase name f =
  if not !enabled_flag then f ()
  else begin
    let parent_id, depth =
      match current_frame () with
      | None -> (-1, 0)
      | Some fr -> (fr.f_id, fr.f_depth + 1)
    in
    let id = next_span_id () in
    push_frame { f_id = id; f_depth = depth };
    let domain = (Domain.self () :> int) in
    let g0 = if domain = main_domain then Some (Gc.quick_stat ()) else None in
    let t_start = Obs_clock.now () in
    Fun.protect
      ~finally:(fun () ->
        let t_stop = Obs_clock.now () in
        let gc =
          match g0 with
          | Some s0 -> Some (gc_delta_of s0 (Gc.quick_stat ()))
          | None -> None
        in
        pop_frame id;
        record_span
          { span_id = id; parent_id; depth; domain; span_name = name;
            t_start; t_stop; gc })
      f
  end

(* ------------------------------------------------------------------ *)
(* Task sharding                                                       *)

type delta = acc option

let no_delta : delta = None

(* Captured on the coordinator when a pool job is submitted; carries the
   open span under which every task of the job should hang. *)
type task_ctx = (int * int) option (* parent span id, parent depth *)

let no_task_ctx : task_ctx = None

let task_context () =
  if not !enabled_flag then None
  else
    match current_frame () with
    | None -> Some (-1, -1) (* tasks become root spans *)
    | Some fr -> Some (fr.f_id, fr.f_depth)

type task_token = {
  tt_entered : bool;
  (* (span id, parent id, depth, start time) of the task span, when the
     submitting job carried a context. *)
  tt_span : (int * int * int * float) option;
}

let not_entered = { tt_entered = false; tt_span = None }

let[@cts.guarded "domain-local"] task_enter ?(ctx = no_task_ctx) () =
  if not !enabled_flag then not_entered
  else begin
    let s = Domain.DLS.get stack in
    s := { top = make_acc (); below = !s.top :: !s.below };
    let tt_span =
      match ctx with
      | None -> None
      | Some (parent, pdepth) ->
          let id = next_span_id () in
          let depth = pdepth + 1 in
          push_frame { f_id = id; f_depth = depth };
          Some (id, parent, depth, Obs_clock.now ())
    in
    { tt_entered = true; tt_span }
  end

let[@cts.guarded "domain-local"] task_leave tok =
  if not tok.tt_entered then no_delta
  else begin
    (match tok.tt_span with
    | None -> ()
    | Some (id, parent_id, depth, t_start) ->
        pop_frame id;
        record_span
          {
            span_id = id;
            parent_id;
            depth;
            domain = (Domain.self () :> int);
            span_name = "pool.task";
            t_start;
            t_stop = Obs_clock.now ();
            gc = None;
          });
    let s = Domain.DLS.get stack in
    match !s with
    | { top; below = next :: below } ->
        s := { top = next; below };
        Some top
    | { below = []; _ } ->
        no_delta (* unbalanced: never pop a domain's base accumulator *)
  end

let[@cts.guarded "domain-local"] task_absorb = function
  | None -> ()
  | Some (d : acc) ->
      let a = current () in
      for i = 0 to n_counters - 1 do
        a.counts.(i) <- a.counts.(i) + d.counts.(i)
      done;
      for i = 0 to n_gauges - 1 do
        a.gauges.(i) <- a.gauges.(i) + d.gauges.(i)
      done;
      Hashtbl.iter
        (fun key v ->
          let prev =
            match Hashtbl.find_opt a.hists key with Some x -> x | None -> 0
          in
          Hashtbl.replace a.hists key (prev + v))
        d.hists;
      a.spans <- d.spans @ a.spans

let[@cts.guarded "domain-local"] reset () =
  let a = current () in
  Array.fill a.counts 0 n_counters 0;
  Array.fill a.gauges 0 n_gauges 0;
  Hashtbl.reset a.hists;
  a.spans <- [];
  Atomic.set span_ids 0

(* ------------------------------------------------------------------ *)
(* Snapshot and export                                                 *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : (string * (int * int) list) list;
  spans : span list;
}

let snapshot () =
  let a = current () in
  let counters =
    List.map
      (fun c -> (counter_name c, a.counts.(counter_index c)))
      all_counters
  in
  let gauges =
    List.map (fun g -> (gauge_name g, a.gauges.(gauge_index g))) all_gauges
  in
  let histograms =
    List.map
      (fun h ->
        let hi = histogram_index h in
        let buckets =
          Hashtbl.fold
            (fun (i, bucket) v l -> if i = hi then (bucket, v) :: l else l)
            a.hists []
        in
        (histogram_name h, List.sort compare buckets))
      all_histograms
  in
  { counters; gauges; histograms; spans = List.rev a.spans }

(* Derived cache-effectiveness percentages. Pure arithmetic over the
   deterministic sections, rounded to 0.01% so re-rendered values are
   stable; a rate whose denominator is zero is omitted. *)
let derived_rates snap =
  let c name = Option.value ~default:0 (List.assoc_opt name snap.counters) in
  let g name = Option.value ~default:0 (List.assoc_opt name snap.gauges) in
  let pct num den =
    if den <= 0 then None
    else
      Some
        (Float.round (1e4 *. float_of_int num /. float_of_int den) /. 100.)
  in
  List.filter_map
    (fun (name, num, den) ->
      Option.map (fun p -> (name, p)) (pct num den))
    [
      ( "run.span_cache.hit_pct",
        c "run.span_cache_hits",
        c "run.span_cache_hits" + c "run.span_cache_misses" );
      ("dp.memo.fill_pct", g "dp.memo_filled", g "dp.memo_slots");
    ]

let summary snap =
  let b = Buffer.create 1024 in
  let rates = derived_rates snap in
  let width =
    List.fold_left
      (fun w (s : span) -> Int.max w (String.length s.span_name))
      (List.fold_left
         (fun w (name, _) -> Int.max w (String.length name))
         (String.length "counter")
         (snap.counters @ snap.gauges
         @ List.map (fun (n, _) -> (n, 0)) rates))
      snap.spans
  in
  Buffer.add_string b (Printf.sprintf "%-*s %12s\n" width "counter" "value");
  List.iter
    (fun (name, v) ->
      Buffer.add_string b (Printf.sprintf "%-*s %12d\n" width name v))
    snap.counters;
  List.iter
    (fun (name, v) ->
      Buffer.add_string b (Printf.sprintf "%-*s %12d\n" width name v))
    snap.gauges;
  List.iter
    (fun (name, p) ->
      Buffer.add_string b (Printf.sprintf "%-*s %11.2f%%\n" width name p))
    rates;
  List.iter
    (fun (name, buckets) ->
      if buckets <> [] then begin
        Buffer.add_string b (Printf.sprintf "histogram %s:" name);
        List.iter
          (fun (k, v) -> Buffer.add_string b (Printf.sprintf " %d:%d" k v))
          buckets;
        Buffer.add_char b '\n'
      end)
    snap.histograms;
  if snap.spans <> [] then begin
    let t0 =
      List.fold_left
        (fun t (s : span) -> Float.min t s.t_start)
        infinity snap.spans
    in
    let have_gc = List.exists (fun (s : span) -> s.gc <> None) snap.spans in
    Buffer.add_string b
      (Printf.sprintf "%-*s %12s %12s%s\n" width "phase" "start ms" "dur ms"
         (if have_gc then "      minor kw      major kw" else ""));
    List.iter
      (fun (s : span) ->
        let indent = String.make (Int.min 8 s.depth * 2) ' ' in
        let name = indent ^ s.span_name in
        let gc_cols =
          match s.gc with
          | Some g ->
              Printf.sprintf " %13.1f %13.1f" (g.minor_words /. 1e3)
                (g.major_words /. 1e3)
          | None -> ""
        in
        Buffer.add_string b
          (Printf.sprintf "%-*s %12.3f %12.3f%s\n" width name
             ((s.t_start -. t0) *. 1e3)
             ((s.t_stop -. s.t_start) *. 1e3)
             gc_cols))
      snap.spans
  end;
  Buffer.contents b

let json_escape = Obs_json.escape

let trace_json snap =
  (* Trace timestamps are microseconds from the earliest span start. *)
  let t0 =
    List.fold_left
      (fun t (s : span) -> Float.min t s.t_start)
      infinity snap.spans
  in
  let us t = if snap.spans = [] then 0. else (t -. t0) *. 1e6 in
  let events = ref [] in
  let add e = events := e :: !events in
  let domain_of = Hashtbl.create 64 in
  List.iter
    (fun (s : span) -> Hashtbl.replace domain_of s.span_id s.domain)
    snap.spans;
  List.iter
    (fun (s : span) ->
      let gc_args =
        match s.gc with
        | Some g ->
            Printf.sprintf
              ",\"gc_minor_words\":%.0f,\"gc_major_words\":%.0f,\"gc_promoted_words\":%.0f,\"gc_minor_collections\":%d,\"gc_major_collections\":%d"
              g.minor_words g.major_words g.promoted_words
              g.minor_collections g.major_collections
        | None -> ""
      in
      add
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"cts\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"span_id\":%d,\"parent_id\":%d,\"depth\":%d%s}}"
           (json_escape s.span_name) (us s.t_start)
           (Float.max 0. (s.t_stop -. s.t_start) *. 1e6)
           s.domain s.span_id s.parent_id s.depth gc_args);
      (* Flow events stitch a task span to its submitting coordinator
         span when they ran on different domains: a flow-start on the
         parent's thread row at the moment the child began, finished on
         the child's row. Chrome/Perfetto draw the arrow. *)
      match Hashtbl.find_opt domain_of s.parent_id with
      | Some parent_domain when parent_domain <> s.domain ->
          add
            (Printf.sprintf
               "{\"name\":\"submit\",\"cat\":\"cts\",\"ph\":\"s\",\"id\":%d,\"ts\":%.3f,\"pid\":1,\"tid\":%d}"
               s.span_id (us s.t_start) parent_domain);
          add
            (Printf.sprintf
               "{\"name\":\"submit\",\"cat\":\"cts\",\"ph\":\"f\",\"bp\":\"e\",\"id\":%d,\"ts\":%.3f,\"pid\":1,\"tid\":%d}"
               s.span_id (us s.t_start) s.domain)
      | Some _ | None -> ())
    snap.spans;
  add
    (Printf.sprintf
       "{\"name\":\"counters\",\"cat\":\"cts\",\"ph\":\"C\",\"ts\":0,\"pid\":1,\"tid\":1,\"args\":{%s}}"
       (String.concat ","
          (List.map
             (fun (name, v) -> Printf.sprintf "\"%s\":%d" (json_escape name) v)
             snap.counters)));
  if List.exists (fun (_, v) -> v <> 0) snap.gauges then
    add
      (Printf.sprintf
         "{\"name\":\"gauges\",\"cat\":\"cts\",\"ph\":\"C\",\"ts\":0,\"pid\":1,\"tid\":1,\"args\":{%s}}"
         (String.concat ","
            (List.map
               (fun (name, v) ->
                 Printf.sprintf "\"%s\":%d" (json_escape name) v)
               snap.gauges)));
  List.iter
    (fun (name, buckets) ->
      if buckets <> [] then
        add
          (Printf.sprintf
             "{\"name\":\"hist.%s\",\"cat\":\"cts\",\"ph\":\"I\",\"s\":\"g\",\"ts\":0,\"pid\":1,\"tid\":1,\"args\":{%s}}"
             (json_escape name)
             (String.concat ","
                (List.map
                   (fun (k, v) -> Printf.sprintf "\"%d\":%d" k v)
                   buckets))))
    snap.histograms;
  "[\n " ^ String.concat ",\n " (List.rev !events) ^ "\n]\n"

let write_trace path snap =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (trace_json snap))

let validate_trace = Obs_json.validate_trace
