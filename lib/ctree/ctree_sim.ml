module W = Waveform
module T = Spice_sim.Transient
module Rc = Circuit.Rc_tree
module Buffer_lib = Circuit.Buffer_lib

type metrics = {
  latency : float;
  skew : float;
  worst_slew : float;
  worst_slew_node : string;
  sink_delays : (string * float) list;
  n_stages : int;
  all_settled : bool;
}

(* Build the RC tree of one stage: everything below [node]'s output until
   the next buffers (which appear as their gate capacitance). Returns the
   RC tree plus the buffers discovered at the stage boundary (node, cell
   and gate tag) and the names of the sinks reached. Only those gates and
   sinks are tagged: the simulator records every tag, and nothing reads
   a merge node or the root (which it records anyway). *)
let build_stage tech (node : Ctree.t) =
  let next_buffers = ref [] in
  let stage_sinks = ref [] in
  let rec sub (child : Ctree.t) : Rc.t =
    match child.Ctree.kind with
    | Ctree.Sink { name; cap } ->
        stage_sinks := name :: !stage_sinks;
        Rc.leaf ~tag:("sink:" ^ name) cap
    | Ctree.Buf b ->
        let tag = "buf:" ^ string_of_int child.Ctree.id in
        next_buffers := (child, b, tag) :: !next_buffers;
        Rc.leaf ~tag (Buffer_lib.input_cap tech b)
    | Ctree.Merge -> Rc.node (edges child)
  and edges (n : Ctree.t) =
    List.map
      (fun (e : Ctree.edge) -> Rc.wire tech ~length:e.Ctree.length (sub e.Ctree.child))
      n.Ctree.children
  in
  let tree = Rc.node (edges node) in
  (tree, !next_buffers, !stage_sinks)

let crop_margin = 100e-12

let simulate ?(config = T.default_config) tech (root : Ctree.t) =
  let root_buf =
    match root.Ctree.kind with
    | Ctree.Buf b -> b
    | Ctree.Sink _ | Ctree.Merge ->
        invalid_arg "Ctree_sim.simulate: root must be a buffer"
  in
  let vdd = tech.Circuit.Tech.vdd in
  let source = W.smooth_curve ~vdd ~slew:Ctree.source_slew () in
  let t_source_50 =
    match W.crossing source (0.5 *. vdd) with
    | Some t -> t
    | None ->
        invalid_arg
          (Printf.sprintf
             "Ctree_sim.simulate: source of slew %g ps never crosses 50%% \
              of Vdd = %g V"
             (Ctree.source_slew *. 1e12) vdd)
  in
  let worst_slew = ref 0. in
  let worst_slew_node = ref "" in
  let sink_arrivals = ref [] in
  let n_stages = ref 0 in
  let all_settled = ref true in
  let note_slew tag wave =
    match W.slew_10_90 wave ~vdd with
    | Some s ->
        if s > !worst_slew then begin
          worst_slew := s;
          worst_slew_node := tag
        end
    | None -> all_settled := false
  in
  (* Worklist of buffer stages: (buffer node, its cell, input waveform).
     Every stage records into one sample buffer, which grows to the
     longest stage and is reused by the rest. A stage's recording ends
     at its own settle, so the next stage's input holds its last value
     from there on. *)
  let buffer = T.buffer () in
  let queue = Queue.create () in
  Queue.add (root, root_buf, source) queue;
  while not (Queue.is_empty queue) do
    let node, buf, input = Queue.pop queue in
    incr n_stages;
    let rc, next, stage_sinks = build_stage tech node in
    let res = T.simulate ~config ~buffer tech (T.Driven_buffer (buf, input)) rc in
    if not (T.settled res) then all_settled := false;
    note_slew ("out:" ^ string_of_int node.Ctree.id) (T.root_waveform res);
    (* Sinks reached within this stage. *)
    List.iter
      (fun name ->
        let wave = T.waveform res ("sink:" ^ name) in
        note_slew ("sink:" ^ name) wave;
        match W.crossing wave (0.5 *. vdd) with
        | Some t -> sink_arrivals := (name, t -. t_source_50) :: !sink_arrivals
        | None ->
            all_settled := false;
            sink_arrivals := (name, Float.infinity) :: !sink_arrivals)
      stage_sinks;
    (* Seed downstream buffer stages with cropped input waveforms. *)
    List.iter
      (fun (bnode, bcell, tag) ->
        let wave = T.waveform res tag in
        note_slew tag wave;
        let cropped =
          match W.crossing wave (0.01 *. vdd) with
          | Some t -> W.crop_before wave (t -. crop_margin)
          | None -> wave
        in
        Queue.add (bnode, bcell, cropped) queue)
      next
  done;
  let delays = List.map snd !sink_arrivals in
  let finite = List.filter (fun d -> Float.is_finite d) delays in
  let latency = List.fold_left Float.max 0. delays in
  let min_delay = List.fold_left Float.min Float.infinity finite in
  let skew =
    match finite with [] -> Float.infinity | _ :: _ -> latency -. min_delay
  in
  {
    latency;
    skew;
    worst_slew = !worst_slew;
    worst_slew_node = !worst_slew_node;
    sink_delays = List.rev !sink_arrivals;
    n_stages = !n_stages;
    all_settled = !all_settled;
  }
