(* Parallel-speedup benchmark: times characterization and synthesis
   sequentially (pool of 1) and on a 4-domain pool, cross-checks that
   both runs produce the identical result, and records the wall-clock
   numbers in BENCH_parallel.json. On hosts with fewer cores than
   domains the speedup degrades toward 1x; [available_cpus] is recorded
   so the numbers can be read in context. *)

module J = Obs_json

let out_file = "BENCH_parallel.json"
let par_domains = 4
let profile = Delaylib.Fast

(* Wall-clock seconds and speedups to 3 decimals. *)
let r3 x = Float.round (x *. 1e3) /. 1e3

(* One leg of the comparison. The speedup is computed here, so the
   record cannot disagree with its timings. *)
let leg ~seq_s ~par_s ~identical extra =
  J.Obj
    (extra
    @ [
        ("seq_s", J.Num (r3 seq_s));
        ("par_s", J.Num (r3 par_s));
        ("speedup", J.Num (r3 (seq_s /. par_s)));
        ("identical", J.Bool identical);
      ])

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let run () =
  let tech = Circuit.Tech.default in
  let lib = Circuit.Buffer_lib.default_library in
  let p1 = Parallel.create ~size:1 () in
  let p4 = Parallel.create ~size:par_domains () in
  Printf.printf "=== parallel speedup (1 vs %d domains, %d cpu(s) available) ===\n%!"
    par_domains
    (Domain.recommended_domain_count ());
  let dl, t_char_seq = time (fun () -> Delaylib.characterize ~profile ~pool:p1 tech lib) in
  let dl_par, t_char_par =
    time (fun () -> Delaylib.characterize ~profile ~pool:p4 tech lib)
  in
  let char_identical = String.equal (Delaylib.to_text dl) (Delaylib.to_text dl_par) in
  Printf.printf "  characterize: seq %.2f s, par %.2f s (%.2fx, identical=%b)\n%!"
    t_char_seq t_char_par (t_char_seq /. t_char_par) char_identical;
  let n_sinks = 80 in
  let specs = Kernels.mk_specs n_sinks 8000. 11 in
  let res_seq, t_syn_seq = time (fun () -> Cts.synthesize ~pool:p1 dl specs) in
  let res_par, t_syn_par = time (fun () -> Cts.synthesize ~pool:p4 dl specs) in
  let syn_identical =
    Ctree_netlist.to_deck tech res_seq.Cts.tree
    = Ctree_netlist.to_deck tech res_par.Cts.tree
    && res_seq.Cts.inserted_buffers = res_par.Cts.inserted_buffers
    && res_seq.Cts.snaked_wirelength = res_par.Cts.snaked_wirelength
    && res_seq.Cts.levels = res_par.Cts.levels
  in
  Printf.printf "  synthesize (%d sinks): seq %.2f s, par %.2f s (%.2fx, identical=%b)\n%!"
    n_sinks t_syn_seq t_syn_par (t_syn_seq /. t_syn_par) syn_identical;
  (* Both trees — not just one — must pass the full invariant checker:
     bit-identical broken trees would still satisfy the equality
     cross-check above. *)
  let cfg = Cts_config.default dl in
  let violations =
    Cts.verify_tree dl cfg res_seq.Cts.tree
    @ Cts.verify_tree dl cfg res_par.Cts.tree
  in
  let checked = violations = [] in
  Printf.printf "  invariant check (both trees): %s\n%!"
    (if checked then "clean" else "VIOLATIONS");
  List.iter
    (fun v -> Printf.printf "    %s\n%!" (Ctree_check.to_string v))
    violations;
  Parallel.shutdown p1;
  Parallel.shutdown p4;
  J.write_file out_file
    (J.Obj
       [
         ("domains", J.Num (float_of_int par_domains));
         ("available_cpus", J.Num (float_of_int (Domain.recommended_domain_count ())));
         ("profile", J.Str (Delaylib.profile_name profile));
         ( "characterization",
           leg ~seq_s:t_char_seq ~par_s:t_char_par ~identical:char_identical [] );
         ( "synthesis",
           leg ~seq_s:t_syn_seq ~par_s:t_syn_par ~identical:syn_identical
             [ ("sinks", J.Num (float_of_int n_sinks)) ] );
       ]);
  Printf.printf "  wrote %s\n%!" out_file;
  if not (char_identical && syn_identical) then begin
    print_endline "  DETERMINISM VIOLATION: parallel run differs from sequential";
    exit 4
  end;
  if not checked then begin
    print_endline "  INVARIANT VIOLATION: synthesized tree fails Ctree_check";
    exit 5
  end
