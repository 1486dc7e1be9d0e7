(* The QCheck properties alone, under the suite names and in the order
   test_all gives them, and none of the deterministic cases: each suite
   is built with a [~property] that keeps every property it is handed,
   and only those are run. `make qcheck-soak` runs this binary once per
   QCHECK_SEED. *)

let properties (suite : Suites.suite) =
  let kept = ref [] in
  let keep t =
    let case = QCheck_alcotest.to_alcotest t in
    kept := case :: !kept;
    case
  in
  ignore (suite ~property:keep);
  List.rev !kept

let () =
  Alcotest.run "aggressive_cts_properties"
    (List.filter_map
       (fun (name, suite) ->
         match properties suite with [] -> None | ps -> Some (name, ps))
       Suites.all)
