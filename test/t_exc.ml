(* Tests for the exception-flow & resource-safety analyzer
   (lib/lint/exc.ml).

   Mirrors t_race's style: in-memory fixtures through [Lint.run],
   keeping the E-rule diagnostics, each rule pinned to its exact
   file:line:col diagnostic, with clean counterparts proving the
   analysis does not overfire. The seeded on-disk fixtures under
   test/fixtures/lint/exc (kept alive by `make lint-fixtures`) are
   exercised too, as is the shared effect table the race analyzer's C4
   reads. The repository's own contracts verify in t_lint's whole-run
   test. *)

let strings = Alcotest.(list string)
let check srcs = T_lint.family 'E' srcs

let check_diags name expected srcs =
  Alcotest.check strings name expected (check srcs)

(* ----------------------------- E1 --------------------------------- *)

let test_e1_escape () =
  check_diags "an undeclared exception escapes a pool task via a helper"
    [
      "lib/x/a.ml:3:37: [E1] exception A.Boom may escape this Parallel.iter \
       at line 3 task closure (A.helper -> raise A.Boom at lib/x/a.ml:2:29): \
       a raising task poisons the pool; catch it inside the task or declare \
       it in the provider's [@cts.raises] mli contract";
    ]
    [
      ( "lib/x/a.ml",
        "exception Boom\n\
         let helper x = if x > 3 then raise Boom\n\
         let run pool xs = Parallel.iter pool (fun y -> helper y) xs\n" );
    ];
  check_diags "catching the exception inside the task is the fix" []
    [
      ( "lib/x/a.ml",
        "exception Boom\n\
         let helper x = if x > 3 then raise Boom\n\
         let run pool xs =\n\
        \  Parallel.iter pool (fun y -> try helper y with Boom -> ()) xs\n" );
    ];
  check_diags "the same effect outside any task closure is not E1" []
    [
      ( "lib/x/a.ml",
        "exception Boom\n\
         let helper x = if x > 3 then raise Boom\n\
         let run xs = List.iter (fun y -> helper y) xs\n" );
    ]

let test_e1_declared_exempt () =
  (* A declared effect is the submitter's responsibility: Parallel.map
     re-raises it deterministically on the coordinator. The contract
     cuts the undeclared chain at the annotated callee. *)
  check_diags "a [@@cts.raises] contract on the callee absolves E1" []
    [
      ( "lib/x/a.mli",
        "exception Boom\n\
         val helper : int -> unit [@@cts.raises \"Boom\"]\n\
         val run : Parallel.pool -> int list -> unit\n" );
      ( "lib/x/a.ml",
        "exception Boom\n\
         let helper x = if x > 3 then raise Boom\n\
         let run pool xs = Parallel.iter pool (fun y -> helper y) xs\n" );
    ]

(* ----------------------------- E2 --------------------------------- *)

let test_e2_violated () =
  check_diags "a total contract over a failing implementation is violated"
    [
      "lib/x/a.mli:1:26: [E2] [@cts.raises] contract on A.parse is violated: \
       the implementation may raise Failure (failwith at lib/x/a.ml:1:29); \
       declare it or handle it";
    ]
    [
      ("lib/x/a.mli", "val parse : string -> int [@@cts.raises \"\"]\n");
      ( "lib/x/a.ml",
        "let parse s = if s = \"\" then failwith \"empty\" else 1\n" );
    ]

let test_e2_stale () =
  check_diags "declaring an exception the code cannot raise is stale"
    [
      "lib/x/a.mli:1:22: [E2] stale [@cts.raises] on A.size: the \
       implementation cannot raise Not_found; drop it from the contract";
    ]
    [
      ("lib/x/a.mli", "val size : int -> int [@@cts.raises \"Not_found\"]\n");
      ("lib/x/a.ml", "let size x = x + 1\n");
    ];
  check_diags "an accurate contract is silent in both directions" []
    [
      ( "lib/x/a.mli",
        "val find : (int * int) list -> int -> int [@@cts.raises \
         \"Not_found\"]\n" );
      ("lib/x/a.ml", "let find l k = List.assoc k l\n");
    ]

(* ----------------------------- E3 --------------------------------- *)

let test_e3_channel () =
  check_diags "raising sites between open_in and close_in leak the channel"
    [
      "lib/x/a.ml:4:13: [E3] input_line may raise End_of_file while open_in \
       ic (opened at line 3) is pending release: the raising path leaks it; \
       use Mutex.protect/Fun.protect or release in an exception handler";
      "lib/x/a.ml:5:10: [E3] call to A.parse_line may raise Failure \
       (failwith at lib/x/a.ml:1:34) while open_in ic (opened at line 3) is \
       pending release: the raising path leaks it; use \
       Mutex.protect/Fun.protect or release in an exception handler";
    ]
    [
      ( "lib/x/a.ml",
        "let parse_line l = if l = \"\" then failwith \"empty\" else l\n\
         let first path =\n\
        \  let ic = open_in path in\n\
        \  let line = input_line ic in\n\
        \  let v = parse_line line in\n\
        \  close_in ic;\n\
        \  v\n" );
    ];
  check_diags "Fun.protect ~finally is the blessed exception-safe form" []
    [
      ( "lib/x/a.ml",
        "let parse_line l = if l = \"\" then failwith \"empty\" else l\n\
         let first path =\n\
        \  let ic = open_in path in\n\
        \  Fun.protect\n\
        \    ~finally:(fun () -> close_in_noerr ic)\n\
        \    (fun () -> parse_line (input_line ic))\n" );
    ]

let test_e3_mutex () =
  check_diags "a raise between Mutex.lock and unlock leaks the lock"
    [
      "lib/x/a.ml:4:21: [E3] failwith may raise Failure while Mutex.lock \
       A.m (opened at line 3) is pending release: the raising path leaks \
       it; use Mutex.protect/Fun.protect or release in an exception handler";
    ]
    [
      ( "lib/x/a.ml",
        "let m = Mutex.create ()\n\
         let bump total =\n\
        \  Mutex.lock m;\n\
        \  if !total > 0 then failwith \"bad\";\n\
        \  total := 1;\n\
        \  Mutex.unlock m\n" );
    ];
  check_diags "Mutex.protect brackets the raising path" []
    [
      ( "lib/x/a.ml",
        "let m = Mutex.create ()\n\
         let bump total =\n\
        \  Mutex.protect m (fun () ->\n\
        \    if !total > 0 then failwith \"bad\";\n\
        \    total := 1)\n" );
    ]

(* ----------------------------- E4 --------------------------------- *)

let test_e4 () =
  check_diags "a swallowing catch-all is flagged"
    [
      "lib/x/a.ml:1:44: [E4] catch-all handler swallows every exception \
       (Out_of_memory and Stack_overflow included); enumerate the expected \
       exceptions or annotate [@cts.catch_all_ok \"reason\"]";
    ]
    [ ("lib/x/a.ml", "let safe_parse s = try int_of_string s with _ -> 0\n") ];
  check_diags "an enumerated handler is fine" []
    [
      ( "lib/x/a.ml",
        "let safe_parse s = try int_of_string s with Failure _ -> 0\n" );
    ];
  check_diags "[@cts.catch_all_ok] is the reviewed escape hatch" []
    [
      ( "lib/x/a.ml",
        "let[@cts.catch_all_ok \"default on any parse failure\"] safe_parse \
         s =\n\
        \  try int_of_string s with _ -> 0\n" );
    ];
  check_diags "an observer that re-raises subtracts nothing and is fine" []
    [
      ( "lib/x/a.ml",
        "let noisy_parse s =\n\
        \  try int_of_string s\n\
        \  with e ->\n\
        \    print_endline \"parse failed\";\n\
        \    raise e\n" );
    ]

(* ----------------------------- E5 --------------------------------- *)

let test_e5 () =
  check_diags "a partial Option.get reachable from a task is flagged"
    [
      "lib/x/a.ml:1:13: [E5] partial Option.get on a value of unproven \
       shape is reachable from a Parallel/Domain task (via A.pick); match \
       the shape explicitly or annotate [@cts.partial_ok]";
    ]
    [
      ( "lib/x/a.ml",
        "let pick o = Option.get o\n\
         let run pool xs =\n\
        \  Parallel.map pool\n\
        \    (fun y -> try pick y with Invalid_argument _ -> 0) xs\n" );
    ];
  check_diags "a dominating shape check proves the argument" []
    [
      ( "lib/x/a.ml",
        "let pick o = if Option.is_some o then Option.get o else 0\n\
         let run pool xs = Parallel.map pool (fun y -> pick y) xs\n" );
    ];
  check_diags "the same partial not reachable from any task is quiet" []
    [
      ( "lib/x/a.ml",
        "let pick o = try Option.get o with Invalid_argument _ -> 0\n" );
    ];
  check_diags "[@cts.partial_ok] is the reviewed escape hatch" []
    [
      ( "lib/x/a.ml",
        "let[@cts.partial_ok] pick o =\n\
        \  try Option.get o with Invalid_argument _ -> 0\n\
         let run pool xs = Parallel.map pool (fun y -> pick y) xs\n" );
    ]

(* ---------------------- shared effect table ------------------------ *)

let test_raises_table () =
  (* The inferred may-raise table is the cross-analyzer product: the
     race analyzer's C4 consumes it to flag lock-holding calls to
     may-raise callees. *)
  let srcs =
    [
      ( "lib/x/a.ml",
        "let parse s = if s = \"\" then failwith \"empty\" else 1\n\
         let total x = x + 1\n" );
    ]
  in
  Alcotest.(check (list (pair (pair string string) (list string))))
    "only non-empty effect sets are listed"
    [ (("A", "parse"), [ "Failure" ]) ]
    (Lint.run srcs).raises;
  (* The race analyzer reads the table: C4's lock-leak direction. *)
  let racy =
    [
      ( "lib/x/b.ml",
        "let m = Mutex.create ()\n\
         let bad () = Mutex.lock m; let v = A.parse \"x\" in Mutex.unlock \
         m; v\n" );
    ]
  in
  Alcotest.check strings "C4 flags the lock-holding may-raise call"
    [
      "lib/x/b.ml:2:35: [C4] call to A.parse may raise (Failure) while \
       holding {B.m}: a raise here unwinds past the unlock and leaks the \
       lock; wrap the critical section in Mutex.protect or catch and \
       release";
    ]
    (T_lint.family 'C' (srcs @ racy))

(* -------------------------- determinism ---------------------------- *)

let test_determinism_shuffle () =
  (* E1-E5 output must be byte-identical regardless of the order the
     sources are supplied in. *)
  let files =
    [
      ( "lib/x/a.ml",
        "exception Boom\n\
         let helper x = if x > 3 then raise Boom\n\
         let run pool xs = Parallel.iter pool (fun y -> helper y) xs\n" );
      ("lib/x/b.mli", "val size : int -> int [@@cts.raises \"Not_found\"]\n");
      ("lib/x/b.ml", "let size x = x + 1\n");
      ("lib/x/c.ml", "let safe s = try int_of_string s with _ -> 0\n");
      ("lib/x/d.ml", "let total x = x * 2\n");
    ]
  in
  let expected = check files in
  Alcotest.(check bool) "baseline fires" true (List.length expected > 0);
  let prop =
    QCheck.Test.make ~count:30
      ~name:"diagnostics independent of file-visit order"
      (QCheck.make
         QCheck.Gen.(shuffle_l files)
         ~print:(fun fs -> String.concat "," (List.map fst fs)))
      (fun shuffled -> check shuffled = expected)
  in
  QCheck.Test.check_exn prop;
  (* And the output is sorted by (file, line, col). *)
  let keys =
    List.map
      (fun (d : Front.diagnostic) -> (d.file, d.line, d.col))
      (Lint.run files).diagnostics
  in
  Alcotest.(check bool)
    "sorted by (file,line,col)" true
    (keys = List.sort compare keys)

(* ------------------------ on-disk fixtures ------------------------- *)

let test_repo_fixtures () =
  (* The seeded fixtures (also exercised by `make lint-fixtures`):
     each must trigger exactly its rule at exactly its pinned
     location, and each clean counterpart must stay silent. The E2
     pairs need their mli alongside the ml. *)
  let dir = T_env.repo_path "test/fixtures/lint/exc/lib/excfix" in
  let expect files diags =
    let r = Lint.run_paths (List.map (Filename.concat dir) files) in
    Alcotest.(check (list string))
      (String.concat "+" files ^ " diagnostics")
      diags
      (List.filter_map
         (fun (d : Front.diagnostic) ->
           if d.rule.[0] = 'E' then
             Some (Printf.sprintf "%s:%d:%d:%s" d.file d.line d.col d.rule)
           else None)
         r.diagnostics)
  in
  expect [ "e1_escape.ml" ] [ "lib/excfix/e1_escape.ml:8:40:E1" ];
  expect [ "e1_clean.ml" ] [];
  expect
    [ "e2_violated.mli"; "e2_violated.ml" ]
    [ "lib/excfix/e2_violated.mli:4:26:E2" ];
  expect
    [ "e2_stale.mli"; "e2_stale.ml" ]
    [ "lib/excfix/e2_stale.mli:4:22:E2" ];
  expect [ "e2_clean.mli"; "e2_clean.ml" ] [];
  expect [ "e3_leak.ml" ]
    [
      "lib/excfix/e3_leak.ml:8:13:E3";
      "lib/excfix/e3_leak.ml:9:10:E3";
    ];
  expect [ "e3_clean.ml" ] [];
  expect [ "e4_swallow.ml" ] [ "lib/excfix/e4_swallow.ml:4:44:E4" ];
  expect [ "e4_clean.ml" ] [];
  expect [ "e5_partial.ml" ] [ "lib/excfix/e5_partial.ml:5:13:E5" ];
  expect [ "e5_clean.ml" ] []

let test_repo_lints_clean () =
  (* The acceptance bar: every [@@cts.raises] contract in the
     repository's own mlis verifies, and no E1-E5 diagnostic remains. *)
  Alcotest.(check (list string))
    "no exception-flow diagnostics" [] (T_lint.repo_family 'E');
  (* The shared effect table is non-trivial on the real tree. *)
  Alcotest.(check bool)
    "effect table populated" true
    (List.length (Lazy.force T_lint.repo_run).raises > 20)

let suite =
  [
    Alcotest.test_case "E1: escape from a task closure" `Quick test_e1_escape;
    Alcotest.test_case "E1: declared effects are exempt" `Quick
      test_e1_declared_exempt;
    Alcotest.test_case "E2: violated contracts" `Quick test_e2_violated;
    Alcotest.test_case "E2: stale contracts" `Quick test_e2_stale;
    Alcotest.test_case "E3: channel leak on a raising path" `Quick
      test_e3_channel;
    Alcotest.test_case "E3: lock leak on a raising path" `Quick test_e3_mutex;
    Alcotest.test_case "E4: swallowing catch-alls" `Quick test_e4;
    Alcotest.test_case "E5: partial calls on unproven shapes" `Quick test_e5;
    Alcotest.test_case "shared effect table feeds C4" `Quick
      test_raises_table;
    Alcotest.test_case "diagnostics deterministic under shuffle" `Quick
      test_determinism_shuffle;
    Alcotest.test_case "seeded fixtures fire" `Quick test_repo_fixtures;
    Alcotest.test_case "repository exception flow clean" `Quick
      test_repo_lints_clean;
  ]
