type violation =
  | Duplicate_id of { id : int }
  | Non_canonical_id of { expected : int; got : int }
  | Sink_not_leaf of { id : int; name : string }
  | Overfull_node of { id : int; children : int }
  | Childless_internal of { id : int }
  | Short_edge of { parent : int; child : int; length : float; manhattan : float }
  | Root_not_buffer of { id : int }
  | Stage_slew of { driver : int; node : int; slew : float; limit : float }
  | Buffer_input_slew of { id : int; slew : float; lo : float; hi : float }
  | Latency_mismatch of { sink : string; got : float; expected : float; tol : float }
  | Missing_sink of { sink : string }

let to_string = function
  | Duplicate_id { id } -> Printf.sprintf "duplicate node id %d" id
  | Non_canonical_id { expected; got } ->
      Printf.sprintf "non-canonical id: preorder position %d holds node %d"
        expected got
  | Sink_not_leaf { id; name } ->
      Printf.sprintf "sink %S (node %d) has children" name id
  | Overfull_node { id; children } ->
      Printf.sprintf "node %d has %d children (max 2)" id children
  | Childless_internal { id } ->
      Printf.sprintf "internal node %d has no children" id
  | Short_edge { parent; child; length; manhattan } ->
      Printf.sprintf
        "edge %d->%d: routed length %.3f um undercuts Manhattan distance \
         %.3f um (negative snaking slack)"
        parent child length manhattan
  | Root_not_buffer { id } ->
      Printf.sprintf "root node %d is not the source driver buffer" id
  | Stage_slew { driver; node; slew; limit } ->
      Printf.sprintf
        "stage %d -> endpoint %d: slew %.2f ps exceeds library limit %.2f ps"
        driver node (slew *. 1e12) (limit *. 1e12)
  | Buffer_input_slew { id; slew; lo; hi } ->
      Printf.sprintf
        "buffer %d driven with input slew %.2f ps outside characterized \
         range [%.2f, %.2f] ps"
        id (slew *. 1e12) (lo *. 1e12) (hi *. 1e12)
  | Latency_mismatch { sink; got; expected; tol } ->
      Printf.sprintf
        "sink %S: checker latency %.6f ps vs reference %.6f ps (tol %.6f ps)"
        sink (got *. 1e12) (expected *. 1e12) (tol *. 1e12)
  | Missing_sink { sink } ->
      Printf.sprintf "sink %S missing from tree or reference" sink

type env = {
  stage :
    drive:Circuit.Buffer_lib.t ->
    input_slew:float ->
    Ctree.t ->
    (Ctree.t * float * float) list;
  default_driver : Circuit.Buffer_lib.t;
  slew_limit : float;
  slew_range : float * float;
  source_slew : float;
}

(* ------------------------------------------------------------------ *)
(* Structure                                                           *)

let structure ?(canonical_ids = true) tree =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let seen = Hashtbl.create 256 in
  let preorder = ref 0 in
  (* Explicit preorder walk; [Ctree.t] is a value tree, so sharing a
     node would surface as a duplicate id. *)
  let rec go (n : Ctree.t) =
    incr preorder;
    if Hashtbl.mem seen n.Ctree.id then add (Duplicate_id { id = n.Ctree.id })
    else Hashtbl.replace seen n.Ctree.id ();
    if canonical_ids && n.Ctree.id <> !preorder then
      add (Non_canonical_id { expected = !preorder; got = n.Ctree.id });
    let arity = List.length n.Ctree.children in
    (match n.Ctree.kind with
    | Ctree.Sink { name; _ } ->
        if arity > 0 then add (Sink_not_leaf { id = n.Ctree.id; name })
    | Ctree.Merge | Ctree.Buf _ ->
        if arity = 0 then add (Childless_internal { id = n.Ctree.id }));
    if arity > 2 then add (Overfull_node { id = n.Ctree.id; children = arity });
    List.iter
      (fun (e : Ctree.edge) ->
        let d = Geometry.Point.manhattan n.Ctree.pos e.Ctree.child.Ctree.pos in
        if ((e.Ctree.length +. 1e-6) [@cts.unit_ok]) < d then
          add
            (Short_edge
               {
                 parent = n.Ctree.id;
                 child = e.Ctree.child.Ctree.id;
                 length = e.Ctree.length;
                 manhattan = d;
               });
        go e.Ctree.child)
      n.Ctree.children
  in
  go tree;
  List.rev !violations

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)

let timing env tree =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let latencies = ref [] in
  let lo, hi = env.slew_range in
  let check_input_slew id slew =
    if slew < lo -. 1e-15 || slew > hi +. 1e-15 then
      add (Buffer_input_slew { id; slew; lo; hi })
  in
  (* Worklist of stages, mirroring [Timing.analyze_driven]:
     (driver, input slew, arrival at driver input, stage root). *)
  let queue = Queue.create () in
  (match tree.Ctree.kind with
  | Ctree.Buf _ ->
      check_input_slew tree.Ctree.id env.source_slew;
      Queue.add (env.source_slew, 0., tree) queue
  | Ctree.Merge -> Queue.add (env.source_slew, 0., tree) queue
  | Ctree.Sink _ -> invalid_arg "Ctree_check.timing: sink region");
  while not (Queue.is_empty queue) do
    let slew_in, t0, root = Queue.pop queue in
    let drive =
      match root.Ctree.kind with
      | Ctree.Buf b -> b
      | _ -> env.default_driver
    in
    let endpoints = env.stage ~drive ~input_slew:slew_in root in
    List.iter
      (fun ((n : Ctree.t), d, s) ->
        if s > env.slew_limit then
          add
            (Stage_slew
               {
                 driver = root.Ctree.id;
                 node = n.Ctree.id;
                 slew = s;
                 limit = env.slew_limit;
               });
        match n.Ctree.kind with
        | Ctree.Sink { name; _ } -> latencies := (name, t0 +. d) :: !latencies
        | Ctree.Buf _ ->
            check_input_slew n.Ctree.id s;
            Queue.add (s, t0 +. d, n) queue
        | Ctree.Merge -> ())
      endpoints
  done;
  (List.rev !violations, List.rev !latencies)

(* ------------------------------------------------------------------ *)
(* Full verification                                                   *)

let verify ?(canonical_ids = true) ?(require_root_buffer = true)
    ?expected_latencies ?(tol = 1e-12) env tree =
  let root_v =
    match tree.Ctree.kind with
    | Ctree.Buf _ -> []
    | _ when require_root_buffer -> [ Root_not_buffer { id = tree.Ctree.id } ]
    | _ -> []
  in
  let struct_v = structure ~canonical_ids tree in
  let timing_v, latencies = timing env tree in
  let latency_v =
    match expected_latencies with
    | None -> []
    | Some expected ->
        (* Name -> latency, the first binding winning as in
           [List.assoc_opt]: one table per side keeps the cross-check
           linear in the sinks. *)
        let table l =
          let h = Hashtbl.create (List.length l) in
          List.iter (fun (sink, d) -> if not (Hashtbl.mem h sink) then Hashtbl.add h sink d) l;
          h
        in
        let got_at = table latencies and expected_at = table expected in
        let v = ref [] in
        List.iter
          (fun (sink, e) ->
            match Hashtbl.find_opt got_at sink with
            | None -> v := Missing_sink { sink } :: !v
            | Some got ->
                if Float.abs (got -. e) > tol then
                  v := Latency_mismatch { sink; got; expected = e; tol } :: !v)
          expected;
        List.iter
          (fun (sink, _) ->
            if not (Hashtbl.mem expected_at sink) then
              v := Missing_sink { sink } :: !v)
          latencies;
        List.rev !v
  in
  root_v @ struct_v @ timing_v @ latency_v

exception Check_failed of violation list

let () =
  Printexc.register_printer (function
    | Check_failed vs ->
        Some
          (Printf.sprintf "Ctree_check.Check_failed:\n  %s"
             (String.concat "\n  " (List.map to_string vs)))
    | _ -> None)
