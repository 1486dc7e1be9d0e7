(* Every suite of the test binaries, by name. A suite with QCheck
   properties takes their runner, [~property], and lists each property
   in its place among its deterministic cases: test_all runs the whole
   list, and qcheck_soak the properties alone. *)

type suite =
  property:(QCheck.Test.t -> unit Alcotest.test_case) ->
  unit Alcotest.test_case list

(* A suite with no QCheck property. *)
let cases_only cases : suite = fun ~property:_ -> cases

let all : (string * suite) list =
  [
    ("util", T_util.suite);
    ("geometry", T_geometry.suite);
    ("numerics", T_numerics.suite);
    ("waveform", T_waveform.suite);
    ("circuit", cases_only T_circuit.suite);
    ("spice_sim", T_spice_sim.suite);
    ("elmore", T_elmore.suite);
    ("delaylib", cases_only T_delaylib.suite);
    ("topology", T_topology.suite);
    ("ctree", cases_only T_ctree.suite);
    ("ctree_check", T_ctree_check.suite);
    ("dme", T_dme.suite);
    ("cts", T_cts.suite);
    ("bmark", cases_only T_bmark.suite);
    ("report", cases_only T_report.suite);
    ("extra", cases_only T_extra.suite);
    ("blockage", cases_only T_blockage.suite);
    ("robust", T_robust.suite);
    ("bounded", T_bounded.suite);
    ("parallel", T_parallel.suite);
    ("insertion", T_insertion.suite);
    ("obs", T_obs.suite);
    ("probe", T_probe.suite);
    ("dp_probe", T_dp_probe.suite);
    ("obs_snapshot", cases_only T_qor.cost_suite);
    ("qor", cases_only T_qor.suite);
    ("lint", cases_only T_lint.suite);
    ("units", cases_only T_units.suite);
    ("race", cases_only T_race.suite);
    ("exc", cases_only T_exc.suite);
  ]
