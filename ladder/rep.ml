let tech = Circuit.Tech.default
let library = Circuit.Buffer_lib.default_library
let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* The library is characterized in-process on every rep, never read
   from a cache file: a cache is not fingerprinted, so a stale file
   would silently change every QoR number. *)
let characterize ~profile pool = Delaylib.characterize ~profile ~pool tech library

let digest tree = Digest.to_hex (Digest.string (Ctree_netlist.to_deck tech tree))

(* VmHWM: the peak resident set of this process, in kB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        let line = input_line ic in
        if String.starts_with ~prefix:"VmHWM:" line then
          Scanf.sscanf line "VmHWM: %f kB" (fun kb -> kb /. 1024.)
        else find ()
      in
      find ())

let buffer_area_x tree =
  List.fold_left
    (fun acc (cell, count) ->
      acc
      +. (float_of_int count
         *. Circuit.Buffer_lib.area_x (Circuit.Buffer_lib.by_name library cell)))
    0. (Ctree.buffer_histogram tree)

let failure (cfg : Cts_config.t) tree violations (sim : Ctree_sim.metrics) =
  match (violations, Ctree.validate tree) with
  | v :: _, _ ->
      Some
        (Printf.sprintf "Cts.verify_tree: %d violations, first: %s"
           (List.length violations) (Ctree_check.to_string v))
  | [], e :: _ -> Some ("Ctree.validate: " ^ e)
  | [], [] ->
      if sim.Ctree_sim.worst_slew > cfg.Cts_config.slew_limit then
        Some
          (Printf.sprintf "simulated worst slew %.2f ps exceeds the %.2f ps limit"
             (sim.Ctree_sim.worst_slew *. 1e12)
             (cfg.Cts_config.slew_limit *. 1e12))
      else if not sim.Ctree_sim.all_settled then
        Some "transient simulation did not settle"
      else None

(* Signoff of a small tree takes a tenth of a second, where host noise
   swamps it: repeat it until half a second has passed and take the median
   call. The calls are deterministic, so any one's result will do. *)
let repeat_for ~seconds f =
  let rec go spent samples =
    let r, dt = timed f in
    if spent +. dt >= seconds then (r, Metric.median (dt :: samples))
    else go (spent +. dt) (dt :: samples)
  in
  go 0. []

let guard f = try f () with e -> Error ("raised " ^ Printexc.to_string e)

let measure ~pool dl cfg sinks : Metric.rep =
  guard @@ fun () ->
  let res, synth_s = timed (fun () -> Cts.synthesize ~config:cfg ~pool dl sinks) in
  let tree = res.Cts.tree in
  let (violations, sim), signoff_s =
    repeat_for ~seconds:0.5 (fun () ->
        let violations = Cts.verify_tree dl cfg tree in
        (violations, Ctree_sim.simulate tech tree))
  in
  match failure cfg tree violations sim with
  | Some reason -> Error reason
  | None ->
      let m = Metric.make in
      Ok
        ( [
            m "synth_s" "s" synth_s;
            m "signoff_s" "s" signoff_s;
            m "flow_s" "s" (synth_s +. signoff_s);
            m "wirelength_mm" "mm" (Ctree.total_wirelength tree /. 1e3);
            m "buffer_area_x" "X" (buffer_area_x tree);
            m "worst_slew_ps" "ps" (sim.Ctree_sim.worst_slew *. 1e12);
          ],
          digest tree )

(* Every rung runs on one domain: a shared CPU is all the host
   promises, and a second domain doubled the run-to-run spread. *)
let with_pool f = Parallel.with_pool ~size:1 f

let run ~profile (w : Workload.t) ~seed : Metric.rep =
  let t0 = now () in
  with_pool @@ fun pool ->
  guard @@ fun () ->
  let dl = characterize ~profile pool in
  let sinks = Workload.sinks w ~seed in
  let setup = Metric.make "setup_s" "s" (now () -. t0) in
  Result.map
    (fun (metrics, d) -> (setup :: metrics, d))
    (measure ~pool dl (Workload.config w dl) sinks)
