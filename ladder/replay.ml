(* A sequential copy of Cts.synthesize's level loop, so that the
   benchmark can put spans around the layer calls from outside the
   library. Delete it once the library records its own spans. *)

let as_item (p : Port.t) = { Topology.pos = Port.pos p; delay = p.Port.delay }

let synthesize dl (cfg : Cts_config.t) specs =
  let children = Hashtbl.create 256 in
  let snaked = ref 0. and inserted = ref 0 and detoured = ref 0 in
  let flips = ref 0 in
  (* Every merge is preceded by a maze probe on the same input ports:
     merge-routing calls [Maze.select] internally, and the probe's span
     prices that share of the merge. *)
  let merge ~commit a b =
    ignore (Obs.phase "maze.select" (fun () -> Maze.select dl cfg a b) : Maze.choice);
    let port, (s : Merge_routing.stats) =
      Obs.phase "merge_routing.merge" (fun () -> Merge_routing.merge dl cfg a b)
    in
    Hashtbl.replace children port.Port.node.Ctree.id (a, b);
    if commit then begin
      snaked := !snaked +. s.Merge_routing.snaked;
      inserted := !inserted + s.Merge_routing.inserted_buffers;
      if s.Merge_routing.detoured then incr detoured
    end;
    port
  in
  let grandchildren (p : Port.t) = Hashtbl.find_opt children p.Port.node.Ctree.id in
  (* Cts.hstructure's H_correct method, decision for decision. *)
  let hcorrect a b =
    match (grandchildren a, grandchildren b) with
    | Some (a1, a2), Some (b1, b2) ->
        let skew_of (x : Port.t) (y : Port.t) =
          Float.max x.Port.skew_est y.Port.skew_est
        in
        let m_11 = merge ~commit:false a1 b1 in
        let m_22 = merge ~commit:false a2 b2 in
        let m_12 = merge ~commit:false a1 b2 in
        let m_21 = merge ~commit:false a2 b1 in
        let original = skew_of a b in
        let swap1 = skew_of m_11 m_22 in
        let swap2 = skew_of m_12 m_21 in
        let ( <! ) x y = Numerics.Float_cmp.definitely_lt ~abs:1e-13 x y in
        if swap1 <! original && not (swap2 <! swap1) then begin
          incr flips;
          (m_11, m_22)
        end
        else if swap2 <! original then begin
          incr flips;
          (m_12, m_21)
        end
        else (a, b)
    | _ -> (a, b)
  in
  let pair =
    match cfg.Cts_config.hstructure with
    | Cts_config.H_none -> fun a b -> (a, b)
    | Cts_config.H_correct -> hcorrect
    | Cts_config.H_reestimate ->
        invalid_arg "Replay.synthesize: H_reestimate is not replayed"
  in
  let centroid = Sinks.centroid specs in
  let leaf (s : Sinks.spec) =
    let offset =
      Option.value ~default:0.
        (List.assoc_opt s.Sinks.name cfg.Cts_config.sink_offsets)
    in
    Port.of_sink ~offset s
  in
  let ports = ref (List.map leaf specs) in
  let levels = ref 0 in
  while List.length !ports > 1 do
    incr levels;
    let items = Array.of_list !ports in
    let pairing =
      Obs.phase "topology.level_pairing" (fun () ->
          Topology.level_pairing ~beta:cfg.Cts_config.topology_beta ~centroid
            (Array.map as_item items))
    in
    let merged =
      List.map
        (fun (i, j) ->
          let a, b = pair items.(i) items.(j) in
          merge ~commit:true a b)
        pairing.Topology.pairs
    in
    let seed =
      match pairing.Topology.seed with Some i -> [ items.(i) ] | None -> []
    in
    ports := seed @ merged
  done;
  let root =
    match !ports with
    | [ p ] -> p
    | _ -> invalid_arg "Replay.synthesize: no sinks"
  in
  (* Cts.finalize: plant the source driver, canonicalize node ids. *)
  let driver = Circuit.Buffer_lib.largest (Delaylib.buffers dl) in
  let intrinsic =
    (Delaylib.eval_single dl ~drive:driver ~load_cap:root.Port.stub_load
       ~input_slew:cfg.Cts_config.slew_target ~length:root.Port.stub_len)
      .Delaylib.buf_delay
  in
  {
    Cts.tree =
      Ctree.renumber
        (Ctree.buffer ~pos:root.Port.node.Ctree.pos driver
           [ Ctree.edge ~length:0. root.Port.node ]);
    est_latency = root.Port.delay +. intrinsic;
    est_skew = root.Port.skew_est;
    levels = !levels;
    snaked_wirelength = !snaked;
    inserted_buffers = !inserted;
    detoured_merges = !detoured;
    flippings = !flips;
  }

let mismatches (a : Cts.result) (b : Cts.result) =
  let bits x = Int64.bits_of_float x in
  List.filter_map
    (fun (field, same) -> if same then None else Some field)
    [
      ("est_latency", Int64.equal (bits a.Cts.est_latency) (bits b.Cts.est_latency));
      ("est_skew", Int64.equal (bits a.Cts.est_skew) (bits b.Cts.est_skew));
      ( "snaked_wirelength",
        Int64.equal (bits a.Cts.snaked_wirelength) (bits b.Cts.snaked_wirelength) );
      ("inserted_buffers", a.Cts.inserted_buffers = b.Cts.inserted_buffers);
      ("detoured_merges", a.Cts.detoured_merges = b.Cts.detoured_merges);
      ("flippings", a.Cts.flippings = b.Cts.flippings);
      ("levels", a.Cts.levels = b.Cts.levels);
      ("netlist", String.equal (Rep.digest a.Cts.tree) (Rep.digest b.Cts.tree));
    ]
