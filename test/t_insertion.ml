(* The optimal multi-cell buffer-insertion DP (Run.eval_dp) and its
   optimality oracle:

   - the dispatching Run.eval under [Optimal_dp] is never worse than the
     greedy engine under the shared (cost, area) objective — the greedy
     incumbent guarantees it, this suite locks it;
   - on tiny position sets the DP matches a brute-force enumeration of
     every (subset of positions) x (buffer type assignment) chain exactly
     — the Li-Shi pruning must lose nothing;
   - DP-synthesized trees pass the Ctree_check invariant verifier and
     are bit-identical at any domain-pool size;
   - a 5-cell characterized library yields a mixed-cell tree whose QoR
     snapshot is gated against a committed golden fixture. *)

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool

let dp_cfg ?(grid = 16) dl =
  {
    (Cts_config.with_insertion (Cts_config.default dl) Cts_config.Optimal_dp)
    with
    Cts_config.dp_grid = grid;
  }

(* ------------------------------------------------------------------ *)
(* Random ports and run lengths                                        *)

(* A port description kept abstract so the qcheck printer can show it:
   sink cap, extra accumulated delay, and an integer unbuffered stub. *)
type port_desc = { cap_ff : int; delay_ps : int; stub_um : int }

let make_port d =
  let spec =
    {
      Sinks.name = "p";
      pos = Geometry.Point.make 0. 0.;
      cap = float_of_int d.cap_ff *. 1e-15;
    }
  in
  {
    (Port.of_sink spec) with
    Port.delay = float_of_int d.delay_ps *. 1e-12;
    stub_len = float_of_int d.stub_um;
  }

let port_gen =
  QCheck.Gen.(
    let* cap_ff = int_range 5 30 in
    let* delay_ps = int_range 0 150 in
    let+ stub_um = int_range 0 30 in
    { cap_ff; delay_ps; stub_um })

let case_gen =
  QCheck.Gen.(
    let* port = port_gen in
    let+ len_um = int_range 10 2500 in
    (port, len_um))

let case_arb =
  QCheck.make case_gen ~print:(fun (d, len) ->
      Printf.sprintf "port{cap=%dfF delay=%dps stub=%dum} length=%dum" d.cap_ff
        d.delay_ps d.stub_um len)

(* Greedy strictly better than DP under the consider_final preference:
   feasible beats infeasible, then lexicographic (cost, area). *)
let strictly_better (ok1, c1, a1) (ok2, c2, a2) =
  if ok1 && not ok2 then true
  else if ok2 && not ok1 then false
  else
    match Float.compare c1 c2 with
    | 0 -> Float.compare a1 a2 < 0
    | c -> c < 0

let score dl cfg (e : Run.eval) =
  let c, a = Run.run_cost dl cfg e in
  (e.Run.feasible, c, a)

let qcheck_dp_never_worse_than_greedy =
  QCheck.Test.make
    ~name:"eval under Optimal_dp never worse than greedy (oracle)" ~count:80
    case_arb (fun (pd, len) ->
      let dl = T_env.get_dl () in
      let cfg = dp_cfg dl in
      let port = make_port pd in
      let length = float_of_int len in
      let g = Run.eval_greedy dl cfg port length in
      let d = Run.eval dl cfg port length in
      not (strictly_better (score dl cfg g) (score dl cfg d)))

(* ------------------------------------------------------------------ *)
(* Brute-force optimality cross-check on tiny position sets            *)

(* Chain cost in exactly the DP's summation order (bottom-up, area
   weight folded in per stage), so agreement is float-exact — integer
   positions and stubs keep every memo key in eval_dp distinct. *)
let eval_chain dl (cfg : Cts_config.t) (port : Port.t) ~length chain =
  let tech = Delaylib.tech dl in
  let rec go cost area ~prev_pos ~prev_load ~prev_stub = function
    | [] ->
        let top_stub_len = length -. prev_pos +. prev_stub in
        let top_ok =
          top_stub_len
          <= Run.top_margin
             *. Run.span dl cfg ~drive:cfg.Cts_config.assumed_driver
                  ~load_cap:prev_load
        in
        let top =
          Delaylib.eval_single dl ~drive:cfg.Cts_config.assumed_driver
            ~load_cap:prev_load ~input_slew:cfg.Cts_config.slew_target
            ~length:top_stub_len
        in
        Some (top_ok, cost +. top.Delaylib.wire_delay, area)
    | (pos, buf) :: rest ->
        let stage_len = pos -. prev_pos +. prev_stub in
        if stage_len > Run.span dl cfg ~drive:buf ~load_cap:prev_load then
          None
        else
          let d = Run.stage_delay dl cfg buf ~length:stage_len ~load_cap:prev_load in
          let a = Circuit.Buffer_lib.area_x buf in
          go
            (cost +. d +. (cfg.Cts_config.dp_area_weight *. a))
            (area +. a) ~prev_pos:pos
            ~prev_load:(Circuit.Buffer_lib.input_cap tech buf)
            ~prev_stub:0. rest
  in
  go port.Port.delay 0. ~prev_pos:0. ~prev_load:port.Port.stub_load
    ~prev_stub:port.Port.stub_len chain

(* Every (subset of positions) x (type assignment) chain, bottom-up. *)
let all_chains types positions =
  let rec go = function
    | [] -> [ [] ]
    | pos :: rest ->
        let tails = go rest in
        tails
        @ List.concat_map
            (fun b -> List.map (fun tl -> (pos, b) :: tl) tails)
            types
  in
  go positions

let brute_force dl cfg port ~length positions =
  let types = Delaylib.buffers dl in
  List.fold_left
    (fun best chain ->
      match eval_chain dl cfg port ~length chain with
      | None -> best
      | Some s -> (
          match best with
          | Some b when not (strictly_better s b) -> best
          | _ -> Some s))
    None
    (all_chains types positions)

(* Tiny instances: integer length and <= 6 integer candidate positions
   with the engine's own spacing rules (> 1 um apart, clear of the run
   ends) already satisfied, so eval_dp adopts the set verbatim. *)
let tiny_gen =
  QCheck.Gen.(
    let* port = port_gen in
    let* len_um = int_range 20 400 in
    let* k = int_range 0 6 in
    let+ picks = list_repeat k (int_range 2 (len_um - 1)) in
    let positions =
      List.fold_left
        (fun acc d ->
          match acc with
          | prev :: _ when d <= prev + 1 -> acc
          | _ -> if d >= len_um - 1 then acc else d :: acc)
        []
        (List.sort_uniq compare picks)
    in
    (port, len_um, List.rev_map float_of_int positions))

let tiny_arb =
  QCheck.make tiny_gen ~print:(fun (d, len, ps) ->
      Printf.sprintf "port{cap=%dfF delay=%dps stub=%dum} length=%dum pos=[%s]"
        d.cap_ff d.delay_ps d.stub_um len
        (String.concat ";" (List.map (Printf.sprintf "%g") ps)))

let qcheck_dp_matches_brute_force =
  QCheck.Test.make ~name:"eval_dp = brute force on tiny position sets"
    ~count:40 tiny_arb (fun (pd, len, positions) ->
      let dl = T_env.get_dl () in
      let cfg = dp_cfg dl in
      let port = make_port pd in
      let length = float_of_int len in
      let e = Run.eval_dp ~positions dl cfg port length in
      let dp_chain =
        List.map (fun (p : Run.placed) -> (p.Run.dist, p.Run.buf)) e.Run.buffers
      in
      match
        (eval_chain dl cfg port ~length dp_chain,
         brute_force dl cfg port ~length positions)
      with
      | None, _ -> false (* DP returned a slew-infeasible stage *)
      | Some _, None -> false (* base chain always evaluates *)
      | Some ((dp_ok, _, _) as dp_s), Some bf_s ->
          (* Neither side strictly better: the DP found a true optimum
             (float-exact — same summation order, same memo keys). *)
          Bool.equal dp_ok e.Run.feasible
          && (not (strictly_better bf_s dp_s))
          && not (strictly_better dp_s bf_s))

(* ------------------------------------------------------------------ *)
(* Whole-flow properties: checked synthesis and domain determinism     *)

let descriptor_gen =
  QCheck.Gen.(
    let* n = int_range 3 9 in
    let* die_k = int_range 2 3 in
    let+ salt = int_range 0 1000 in
    {
      Bmark.Synthetic.name = Printf.sprintf "ins%d_%d" n salt;
      n_sinks = n;
      die = float_of_int die_k *. 1000.;
      cap_lo = 5e-15;
      cap_hi = 30e-15;
      cluster_fraction = 0.;
    })

let descriptor_arb =
  QCheck.make descriptor_gen ~print:(fun d ->
      Printf.sprintf "%s (%d sinks, die %.0f)" d.Bmark.Synthetic.name
        d.Bmark.Synthetic.n_sinks d.Bmark.Synthetic.die)

let qcheck_dp_synthesis_verifies =
  QCheck.Test.make ~name:"Optimal_dp synthesis passes Ctree_check" ~count:4
    descriptor_arb (fun d ->
      let dl = T_env.get_dl () in
      let cfg = dp_cfg ~grid:8 dl in
      let specs = Bmark.Synthetic.sinks d in
      let res = Cts.synthesize ~config:cfg ~check:true dl specs in
      Cts.verify_tree dl cfg res.Cts.tree = [])

let qcheck_dp_deterministic_across_domains =
  QCheck.Test.make
    ~name:"Optimal_dp synthesis: pool of 4 bit-identical to pool of 1"
    ~count:3 descriptor_arb (fun d ->
      let dl = T_env.get_dl () in
      let cfg = dp_cfg ~grid:8 dl in
      let specs = Bmark.Synthetic.sinks d in
      Parallel.with_pool ~size:1 (fun p1 ->
          Parallel.with_pool ~size:4 (fun p4 ->
              let seq = Cts.synthesize ~config:cfg ~pool:p1 dl specs in
              let par = Cts.synthesize ~config:cfg ~pool:p4 dl specs in
              Ctree_netlist.to_deck T_env.tech seq.Cts.tree
              = Ctree_netlist.to_deck T_env.tech par.Cts.tree
              && seq.Cts.inserted_buffers = par.Cts.inserted_buffers
              && seq.Cts.levels = par.Cts.levels
              && seq.Cts.est_latency = par.Cts.est_latency
              && seq.Cts.est_skew = par.Cts.est_skew)))

(* ------------------------------------------------------------------ *)
(* 5-cell library: mixed-cell insertion gated by a golden fixture      *)

let lib5 =
  Circuit.Buffer_lib.default_library
  @ [
      Circuit.Buffer_lib.make ~name:"BUF5X" ~size:5.;
      Circuit.Buffer_lib.make ~name:"BUF40X" ~size:40.;
    ]

let dl5 = lazy (Delaylib.characterize ~profile:Delaylib.Fast T_env.tech lib5)

let fixture_path = T_env.repo_path "test/fixtures/qor/five_cell_r1_dp.json"

let capture_five_cell () =
  let dl = Lazy.force dl5 in
  let cfg = dp_cfg dl in
  let d = Bmark.Synthetic.scaled (Bmark.Synthetic.find "r1") 0.05 in
  let res = Cts.synthesize ~config:cfg dl (Bmark.Synthetic.sinks d) in
  Qor.capture ~label:"five-cell-r1-dp" ~profile:"fast" ~scale:0.05 dl cfg res

let test_five_cell_mixed_and_gated () =
  let q = capture_five_cell () in
  let distinct =
    List.length
      (List.filter (fun (r : Qor.buffer_type_row) -> r.Qor.count > 0)
         q.Qor.buffers_by_type)
  in
  checkb "uses at least 2 distinct buffer cells" true (distinct >= 2);
  (* CTS_UPDATE_QOR_FIXTURE=<dir> regenerates the committed golden
     snapshot instead of comparing (run once, commit the file). *)
  match Sys.getenv_opt "CTS_UPDATE_QOR_FIXTURE" with
  | Some dir ->
      let path = Filename.concat dir (Filename.basename fixture_path) in
      Qor.write_file path q;
      Printf.printf "fixture regenerated: %s\n" path
  | None -> (
      match Qor.load_file fixture_path with
      | Error msg -> Alcotest.fail ("golden fixture unreadable: " ^ msg)
      | Ok baseline ->
          let base_distinct =
            List.length
              (List.filter
                 (fun (r : Qor.buffer_type_row) -> r.Qor.count > 0)
                 baseline.Qor.buffers_by_type)
          in
          checkb "fixture itself is mixed-cell" true (base_distinct >= 2);
          let rep = Qor_compare.compare_snapshots ~baseline q in
          if Qor_compare.has_regression rep then
            Alcotest.fail
              ("QoR regressed vs golden five-cell fixture:\n"
              ^ Qor_compare.render rep);
          check (Alcotest.list Alcotest.string) "no metadata mismatch" []
            rep.Qor_compare.warnings)

let suite ~property =
  [
    property qcheck_dp_never_worse_than_greedy;
    property qcheck_dp_matches_brute_force;
    property qcheck_dp_synthesis_verifies;
    property qcheck_dp_deterministic_across_domains;
    Alcotest.test_case "five-cell library: mixed cells, gated vs fixture"
      `Slow test_five_cell_mixed_and_gated;
  ]
