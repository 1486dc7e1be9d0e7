(* Test entry point: every library's suite under one alcotest binary so
   the Fast-profile delay library is characterized once and shared. *)

let () =
  Alcotest.run "aggressive_cts"
    [
      ("util", T_util.suite);
      ("geometry", T_geometry.suite);
      ("numerics", T_numerics.suite);
      ("waveform", T_waveform.suite);
      ("circuit", T_circuit.suite);
      ("spice_sim", T_spice_sim.suite);
      ("elmore", T_elmore.suite);
      ("delaylib", T_delaylib.suite);
      ("topology", T_topology.suite);
      ("ctree", T_ctree.suite);
      ("ctree_check", T_ctree_check.suite);
      ("dme", T_dme.suite);
      ("cts", T_cts.suite);
      ("bmark", T_bmark.suite);
      ("report", T_report.suite);
      ("extra", T_extra.suite);
      ("blockage", T_blockage.suite);
      ("robust", T_robust.suite);
      ("bounded", T_bounded.suite);
      ("parallel", T_parallel.suite);
      ("insertion", T_insertion.suite);
      ("obs", T_obs.suite);
      ("probe", T_probe.suite);
      ("dp_probe", T_dp_probe.suite);
      ("obs_snapshot", T_qor.cost_suite);
      ("qor", T_qor.suite);
      ("lint", T_lint.suite);
      ("units", T_units.suite);
      ("race", T_race.suite);
      ("exc", T_exc.suite);
    ]
