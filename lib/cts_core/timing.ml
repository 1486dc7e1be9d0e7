module Buffer_lib = Circuit.Buffer_lib

type report = {
  sink_delays : (string * float) list;
  max_delay : float;
  min_delay : float;
  worst_slew : float;
  stage_slews : float list;
}

let skew r = r.max_delay -. r.min_delay

type reached =
  | At_sink of { node : Ctree.t; name : string }
  | At_buffer of { node : Ctree.t; cell : Buffer_lib.t }

type stage_end = {
  reached : reached;
  branch : int;
  delay : float;
  slew : float;
}

type endpoint = {
  reached : reached;
  branch : int;  (** Index of the stage root's edge above the endpoint. *)
  path_len : float;
  cap : float;
  side_correction : float;  (** Elmore side-load delay add-on (s). *)
  side_slew_sq : float;
      (** Squared slew degradation from off-path loads, RSS-combined with
          the fitted wire slew (s^2). *)
}

(* A stage ends at the first sink or buffer below its root: the
   endpoint and the capacitance it presents; [None] at a merge. *)
let ends_at tech (n : Ctree.t) =
  match n.Ctree.kind with
  | Ctree.Sink { name; cap } -> Some (At_sink { node = n; name }, cap)
  | Ctree.Buf cell ->
      Some (At_buffer { node = n; cell }, Buffer_lib.input_cap tech cell)
  | Ctree.Merge -> None

(* Total unbuffered capacitance of a stage region subtree: wires plus the
   gates/sinks terminating it. *)
let rec region_cap tech (e : Ctree.edge) =
  let wire = (tech : Circuit.Tech.t).unit_cap *. e.Ctree.length in
  match e.Ctree.child.Ctree.kind with
  | Ctree.Sink { cap; _ } -> wire +. cap
  | Ctree.Buf b -> wire +. Buffer_lib.input_cap tech b
  | Ctree.Merge ->
      List.fold_left
        (fun acc c -> acc +. region_cap tech c)
        wire e.Ctree.child.Ctree.children

(* Enumerate a stage's endpoints (next buffers and sinks) with their path
   lengths and Elmore side-load corrections: each off-path subtree hanging
   at distance d from the driver adds (Rd + r d) * C_side to every
   endpoint reached through that branch point. *)
let stage_endpoints tech ~drive (root : Ctree.t) =
  let rd = Buffer_lib.drive_resistance tech drive in
  let unit_res = (tech : Circuit.Tech.t).unit_res in
  let acc = ref [] in
  let rec walk branch (n : Ctree.t) path_len side slew_sq =
    match ends_at tech n with
    | Some (reached, cap) ->
        acc :=
          { reached; branch; path_len; cap; side_correction = side;
            side_slew_sq = slew_sq }
          :: !acc
    | None ->
        List.iter
          (fun (e : Ctree.edge) ->
            let others =
              List.filter (fun (o : Ctree.edge) -> o != e) n.Ctree.children
            in
            let c_off =
              List.fold_left (fun s o -> s +. region_cap tech o) 0. others
            in
            let tau = (rd +. (unit_res *. path_len)) *. c_off in
            (* An off-path load acts like an extra pole of time constant
               tau: ~ln 9 * tau of added 10-90 transition, RSS-combined. *)
            let dslew = 2.2 *. tau in
            walk branch e.Ctree.child (path_len +. e.Ctree.length)
              (side +. tau) (slew_sq +. (dslew *. dslew)))
          n.Ctree.children
  in
  List.iteri
    (fun branch (e : Ctree.edge) ->
      walk branch e.Ctree.child e.Ctree.length 0. 0.)
    root.Ctree.children;
  List.rev !acc

(* Is the stage exactly the characterized branch shape: a driver at a
   fork whose two edges run straight (no intermediate merges) into
   endpoints? *)
let branch_shape tech (root : Ctree.t) =
  match root.Ctree.children with
  | [ e1; e2 ] -> (
      match (ends_at tech e1.Ctree.child, ends_at tech e2.Ctree.child) with
      | Some (r1, c1), Some (r2, c2) -> Some ((e1, r1, c1), (e2, r2, c2))
      | _, _ -> None)
  | _ -> None

(* Analyze one stage: each endpoint with the root edge it hangs under,
   its delay from the driver input and the slew at it. *)
let analyze_stage dl ~drive ~input_slew (root : Ctree.t) =
  Obs.incr Obs.Timing_stages;
  let tech = Delaylib.tech dl in
  match branch_shape tech root with
  | Some ((e1, r1, c1), (e2, r2, c2)) ->
      let b =
        Delaylib.eval_branch dl ~drive ~load_cap_left:c1 ~load_cap_right:c2
          ~input_slew ~len_left:e1.Ctree.length ~len_right:e2.Ctree.length
      in
      (* Branch fits exclude the driver's intrinsic delay; take it from
         the single-wire fit at the longer branch. *)
      let intrinsic =
        (Delaylib.eval_single dl ~drive ~load_cap:(c1 +. c2) ~input_slew
           ~length:(Float.max e1.Ctree.length e2.Ctree.length))
          .Delaylib.buf_delay
      in
      [
        {
          reached = r1;
          branch = 0;
          delay = intrinsic +. b.Delaylib.delay_left;
          slew = b.Delaylib.slew_left;
        };
        {
          reached = r2;
          branch = 1;
          delay = intrinsic +. b.Delaylib.delay_right;
          slew = b.Delaylib.slew_right;
        };
      ]
  | None ->
      let eps = stage_endpoints tech ~drive root in
      List.map
        (fun ep ->
          let ev =
            Delaylib.eval_single dl ~drive ~load_cap:ep.cap ~input_slew
              ~length:ep.path_len
          in
          let slew =
            sqrt
              ((ev.Delaylib.wire_slew *. ev.Delaylib.wire_slew)
              +. ep.side_slew_sq)
          in
          {
            reached = ep.reached;
            branch = ep.branch;
            delay =
              ev.Delaylib.buf_delay +. ev.Delaylib.wire_delay
              +. ep.side_correction;
            slew;
          })
        eps

let stage_worst_slew dl ~drive ~input_slew (region : Ctree.t) =
  let endpoints = analyze_stage dl ~drive ~input_slew region in
  List.fold_left (fun acc e -> Float.max acc e.slew) 0. endpoints

(* Useful skew: sink arrivals are compared net of their prescribed
   offsets, so balancing drives each sink toward its own target. *)
let offset (cfg : Cts_config.t) name =
  match List.assoc_opt name cfg.Cts_config.sink_offsets with
  | Some o -> o
  | None -> 0.

(* The one top-down walk both analyses share: stages breadth-first from
   the region root. [sink side name d] sees each sink with the region
   root's edge it hangs under and its delay net of its offset, and
   [stage endpoints] each stage's endpoints after its sinks; the result
   is the worst endpoint slew. *)
let iter_sinks dl cfg ~drive ~input_slew (region : Ctree.t) ~stage sink =
  let worst_slew = ref 0. in
  (* Worklist: (driver type, input slew, arrival at driver input, region
     root, root edge; -1 while still at the region root). *)
  let queue = Queue.create () in
  (match region.Ctree.kind with
  | Ctree.Buf b -> Queue.add (b, input_slew, 0., region, -1) queue
  | Ctree.Merge -> Queue.add (drive, input_slew, 0., region, -1) queue
  | Ctree.Sink _ -> invalid_arg "Timing.analyze_driven: sink region");
  while not (Queue.is_empty queue) do
    let drv, slew_in, t0, root, side = Queue.pop queue in
    let endpoints = analyze_stage dl ~drive:drv ~input_slew:slew_in root in
    List.iter
      (fun e ->
        if e.slew > !worst_slew then worst_slew := e.slew;
        let side = if side < 0 then e.branch else side in
        match e.reached with
        | At_sink { name; _ } ->
            sink side name (t0 +. e.delay -. offset cfg name)
        | At_buffer { node; cell } ->
            Queue.add (cell, e.slew, t0 +. e.delay, node, side) queue)
      endpoints;
    stage endpoints
  done;
  !worst_slew

let analyze_driven dl cfg ~drive ~input_slew (region : Ctree.t) =
  Obs.incr Obs.Timing_analyses;
  let sink_delays = ref [] and stage_slews = ref [] in
  let worst_slew =
    iter_sinks dl cfg ~drive ~input_slew region
      ~stage:(fun endpoints ->
        let worst = List.fold_left (fun w e -> Float.max w e.slew) 0. endpoints in
        stage_slews := worst :: !stage_slews)
      (fun _ name d -> sink_delays := (name, d) :: !sink_delays)
  in
  match !sink_delays with
  | [] -> invalid_arg "Timing.analyze_driven: no sinks reached"
  | (_, d) :: rest ->
      {
        sink_delays = List.rev !sink_delays;
        max_delay = List.fold_left (fun m (_, d) -> Float.max m d) d rest;
        min_delay = List.fold_left (fun m (_, d) -> Float.min m d) d rest;
        worst_slew;
        stage_slews = List.rev !stage_slews;
      }

let side_delays dl cfg ~drive ~input_slew (region : Ctree.t) =
  (match (region.Ctree.kind, region.Ctree.children) with
  | Ctree.Merge, [ _; _ ] -> ()
  | (Ctree.Merge | Ctree.Buf _ | Ctree.Sink _), _ ->
      invalid_arg "Timing.side_delays: region must be a two-edge merge");
  Obs.incr Obs.Timing_analyses;
  (* min, max of side 0 then side 1. Seeding with -inf/+inf leaves every
     bit as a fold seeded with the first delay: [Float.min]/[Float.max]
     do not depend on order for non-NaN values. *)
  let span = [| infinity; neg_infinity; infinity; neg_infinity |] in
  let seen = [| false; false |] in
  ignore
    (iter_sinks dl cfg ~drive ~input_slew region ~stage:ignore
       (fun side _ d ->
         let k = 2 * side in
         span.(k) <- Float.min span.(k) d;
         span.(k + 1) <- Float.max span.(k + 1) d;
         seen.(side) <- true));
  let side i =
    if seen.(i) then Some (span.(2 * i), span.((2 * i) + 1)) else None
  in
  (side 0, side 1)

let analyze_tree dl cfg tree =
  match tree.Ctree.kind with
  | Ctree.Buf _ -> analyze_driven dl cfg ~drive:cfg.Cts_config.assumed_driver
                     ~input_slew:Ctree.source_slew tree
  | Ctree.Merge | Ctree.Sink _ ->
      invalid_arg "Timing.analyze_tree: root must be the source driver"
