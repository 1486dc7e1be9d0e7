type violation =
  | Structure of Ctree.problem
  | Root_not_buffer of { id : int }
  | Stage_slew of { driver : int; node : int; slew : float; limit : float }
  | Buffer_input_slew of { id : int; slew : float; lo : float; hi : float }
  | Latency_mismatch of { sink : string; got : float; expected : float; tol : float }
  | Missing_sink of { sink : string }

let to_string = function
  | Structure p -> Ctree.problem_to_string p
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

let structure ~canonical_ids tree =
  List.map (fun p -> Structure p) (Ctree.problems ~canonical_ids tree)

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)

let timing dl (cfg : Cts_config.t) ~source_slew tree =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let latencies = ref [] in
  (* Trusted input-slew range: [Delaylib.eval_single] clamps into the
     characterized fit domain, so an edge faster than its bottom is
     evaluated at the bottom — a pessimistic, therefore safe,
     saturation. Above the top the same clamp would under-report delay
     and slew, so the top of the fit domain is a hard bound. *)
  let lo = 0. and hi = snd (Delaylib.slew_domain dl) in
  let limit = cfg.Cts_config.slew_limit in
  (* Each comparison is written so that a NaN fails it. *)
  let check_input_slew id slew =
    if not (slew >= lo -. 1e-15 && slew <= hi +. 1e-15) then
      add (Buffer_input_slew { id; slew; lo; hi })
  in
  let check_stage_slew (root : Ctree.t) (node : Ctree.t) slew =
    if not (slew <= limit) then
      add (Stage_slew { driver = root.Ctree.id; node = node.Ctree.id; slew; limit })
  in
  (* Worklist of stages, breadth-first as [Timing.analyze_driven] walks
     them: (driver, input slew, arrival at driver input, stage root). *)
  let queue = Queue.create () in
  (match tree.Ctree.kind with
  | Ctree.Buf b ->
      check_input_slew tree.Ctree.id source_slew;
      Queue.add (b, source_slew, 0., tree) queue
  | Ctree.Merge ->
      Queue.add (cfg.Cts_config.assumed_driver, source_slew, 0., tree) queue
  | Ctree.Sink _ -> invalid_arg "Ctree_check.timing: sink region");
  while not (Queue.is_empty queue) do
    let drive, input_slew, t0, root = Queue.pop queue in
    List.iter
      (fun ({ Timing.reached; delay; slew; _ } : Timing.stage_end) ->
        match reached with
        | Timing.At_sink { node; name } ->
            check_stage_slew root node slew;
            latencies := (name, t0 +. delay) :: !latencies
        | Timing.At_buffer { node; cell } ->
            check_stage_slew root node slew;
            check_input_slew node.Ctree.id slew;
            Queue.add (cell, slew, t0 +. delay, node) queue)
      (Timing.analyze_stage dl ~drive ~input_slew root)
  done;
  (List.rev !violations, List.rev !latencies)

(* ------------------------------------------------------------------ *)
(* Latency cross-check                                                 *)

let compare_latencies ~got ~expected =
  let tol = 1e-12 in
  (* Name -> latency, the first binding winning as in
     [List.assoc_opt]: one table per side keeps the cross-check linear
     in the sinks. *)
  let table l =
    let h = Hashtbl.create (List.length l) in
    List.iter (fun (sink, d) -> if not (Hashtbl.mem h sink) then Hashtbl.add h sink d) l;
    h
  in
  let got_at = table got and expected_at = table expected in
  let v = ref [] in
  List.iter
    (fun (sink, e) ->
      match Hashtbl.find_opt got_at sink with
      | None -> v := Missing_sink { sink } :: !v
      | Some g ->
          if not (Float.abs (g -. e) <= tol) then
            v := Latency_mismatch { sink; got = g; expected = e; tol } :: !v)
    expected;
  List.iter
    (fun (sink, _) ->
      if not (Hashtbl.mem expected_at sink) then v := Missing_sink { sink } :: !v)
    got;
  List.rev !v

exception Check_failed of violation list

let () =
  Printexc.register_printer (function
    | Check_failed vs ->
        Some
          (Printf.sprintf "Ctree_check.Check_failed:\n  %s"
             (String.concat "\n  " (List.map to_string vs)))
    | _ -> None)
