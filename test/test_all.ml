(* Test entry point: every library's suite under one alcotest binary so
   the Fast-profile delay library is characterized once per run and
   shared. Each suite runs its deterministic cases and its QCheck
   properties in the order it lists them. *)

let () =
  Alcotest.run "aggressive_cts"
    (List.map
       (fun (name, (suite : Suites.suite)) ->
         (name, suite ~property:QCheck_alcotest.to_alcotest))
       Suites.all)
