(* Tests for the concurrency-effect race analyzer (lib/lint/race.ml).

   Mirrors t_units's style: in-memory fixtures through [Lint.run],
   keeping the C-rule diagnostics, each rule pinned to its exact
   file:line:col diagnostic, with clean counterparts proving the
   analysis does not overfire. The seeded on-disk fixtures under
   test/fixtures/lint/race (kept alive by `make lint-fixtures`) are
   exercised too; the repository's own [@cts.guarded] sites verify
   clean in t_lint's whole-run test. *)

let strings = Alcotest.(list string)
let check srcs = T_lint.family 'C' srcs

let check_diags name expected srcs =
  Alcotest.check strings name expected (check srcs)

let mechanisms =
  "[@cts.guarded \"mutex[:NAME]\"|\"atomic\"|\"domain-local\"]"

(* ----------------------------- C1 --------------------------------- *)

let test_c1_unguarded () =
  check_diags "unguarded shared write reachable from a pool task"
    [
      "lib/x/a.ml:2:14: [C1] := (A.hits) writes shared state reachable from \
       a Parallel pool task with no lock held, no atomic primitive and no \
       verifiable " ^ mechanisms ^ " mechanism on the path";
    ]
    [
      ( "lib/x/a.ml",
        "let hits = ref 0\n\
         let bump () = hits := !hits + 1\n\
         let run pool xs = Parallel.iter pool (fun _y -> bump ()) xs\n" );
    ];
  check_diags "the same write is fine when no task reaches it" []
    [
      ( "lib/x/a.ml",
        "let hits = ref 0\nlet bump () = hits := !hits + 1\n" );
    ];
  check_diags "task-local fresh state is always fine" []
    [
      ( "lib/x/a.ml",
        "let run pool xs =\n\
        \  Parallel.map pool\n\
        \    (fun y -> let h = Hashtbl.create 8 in Hashtbl.replace h y y; h)\n\
        \    xs\n" );
    ]

let test_c1_verified_mechanisms () =
  check_diags "Atomic.* writes verify without any claim" []
    [
      ( "lib/x/a.ml",
        "let hits = Atomic.make 0\n\
         let bump () = Atomic.incr hits\n\
         let run pool xs = Parallel.iter pool (fun _y -> bump ()) xs\n" );
    ];
  check_diags "a lock held on the actual path verifies a \"mutex\" claim" []
    [
      ( "lib/x/a.ml",
        "let m = Mutex.create ()\n\
         let hits = ref 0\n\
         let[@cts.guarded \"mutex\"] bump () =\n\
        \  Mutex.lock m; hits := !hits + 1; Mutex.unlock m\n\
         let run pool xs = Parallel.iter pool (fun _y -> bump ()) xs\n" );
    ];
  check_diags "Mutex.protect brackets the thunk" []
    [
      ( "lib/x/a.ml",
        "let m = Mutex.create ()\n\
         let hits = ref 0\n\
         let[@cts.guarded \"mutex:m\"] bump () =\n\
        \  Mutex.protect m (fun () -> hits := !hits + 1)\n" );
    ]

let test_c1_claims_not_trusted () =
  check_diags "an \"atomic\" claim on a plain ref write is rejected"
    [
      "lib/x/a.ml:2:35: [C1] [@cts.guarded \"atomic\"] not verified: := \
       (A.total) is not an Atomic.* operation";
    ]
    [
      ( "lib/x/a.ml",
        "let total = ref 0\n\
         let[@cts.guarded \"atomic\"] add n = total := !total + n\n" );
    ];
  check_diags "a \"mutex\" claim with no lock on the path is rejected"
    [
      "lib/x/a.ml:2:34: [C1] [@cts.guarded \"mutex\"] not verified: := \
       (A.total) executes with no mutex held on the actual path";
    ]
    [
      ( "lib/x/a.ml",
        "let total = ref 0\n\
         let[@cts.guarded \"mutex\"] add n = total := !total + n\n" );
    ];
  check_diags "a \"domain-local\" claim needs DLS on the path"
    [
      "lib/x/a.ml:2:41: [C1] [@cts.guarded \"domain-local\"] not verified: \
       := (A.total) but no Domain.DLS access on the path";
    ]
    [
      ( "lib/x/a.ml",
        "let total = ref 0\n\
         let[@cts.guarded \"domain-local\"] add n = total := !total + n\n" );
    ]

let test_c1_named_mutex () =
  check_diags "a claim naming a nonexistent mutex is rejected"
    [
      "lib/x/a.ml:3:3: [C1] [@cts.guarded \"mutex:ghost\"] names no \
       module-level mutex (no `let ghost = Mutex.create ()` found)";
    ]
    [
      ( "lib/x/a.ml",
        "let guard = Mutex.create ()\n\
         let count = ref 0\n\
         let[@cts.guarded \"mutex:ghost\"] tick () =\n\
        \  Mutex.lock guard; count := !count + 1; Mutex.unlock guard\n" );
    ];
  check_diags "a claim naming the wrong (but existing) mutex is rejected"
    [
      "lib/x/a.ml:4:54: [C1] [@cts.guarded \"mutex:m2\"] not verified: := \
       (A.count) executes under {A.m1}, not under mutex m2";
    ]
    [
      ( "lib/x/a.ml",
        "let m1 = Mutex.create ()\n\
         let m2 = Mutex.create ()\n\
         let count = ref 0\n\
         let[@cts.guarded \"mutex:m2\"] tick () = Mutex.lock m1; count := \
         !count + 1; Mutex.unlock m1\n" );
    ];
  check_diags "the right named mutex verifies clean" []
    [
      ( "lib/x/a.ml",
        "let m1 = Mutex.create ()\n\
         let count = ref 0\n\
         let[@cts.guarded \"mutex:m1\"] tick () = Mutex.lock m1; count := \
         !count + 1; Mutex.unlock m1\n" );
    ]

let test_c1_stale_claim () =
  check_diags "a guard on a read-only definition is stale"
    [
      "lib/x/a.ml:2:3: [C1] stale [@cts.guarded \"mutex\"]: the annotated \
       code performs no shared mutation; remove the annotation";
    ]
    [
      ( "lib/x/a.ml",
        "let total = ref 0\n\
         let[@cts.guarded \"mutex\"] read_total () = !total\n" );
    ];
  check_diags "a claim covering a real write is not stale" []
    [
      ( "lib/x/a.ml",
        "let m = Mutex.create ()\n\
         let total = ref 0\n\
         let[@cts.guarded \"mutex:m\"] set v =\n\
        \  Mutex.lock m; total := v; Mutex.unlock m\n" );
    ]

(* ----------------------------- C2 --------------------------------- *)

let test_c2 () =
  check_diags "same state under disjoint lock sets"
    [
      "lib/x/a.ml:5:34: [C2] inconsistent lock set: A.state is guarded by \
       {A.lock_b} here but by {A.lock_a} at lib/x/a.ml:4:34";
    ]
    [
      ( "lib/x/a.ml",
        "let state = ref 0\n\
         let lock_a = Mutex.create ()\n\
         let lock_b = Mutex.create ()\n\
         let via_a () = Mutex.lock lock_a; state := 1; Mutex.unlock lock_a\n\
         let via_b () = Mutex.lock lock_b; state := 2; Mutex.unlock lock_b\n"
      );
    ];
  check_diags "overlapping lock sets do not fire" []
    [
      ( "lib/x/a.ml",
        "let state = ref 0\n\
         let lock_a = Mutex.create ()\n\
         let lock_b = Mutex.create ()\n\
         let one () = Mutex.lock lock_a; state := 1; Mutex.unlock lock_a\n\
         let two () =\n\
        \  Mutex.lock lock_a; Mutex.lock lock_b; state := 2;\n\
        \  Mutex.unlock lock_b; Mutex.unlock lock_a\n" );
    ]

(* ----------------------------- C3 --------------------------------- *)

let test_c3_inversion () =
  check_diags "A-then-B in one function, B-then-A in another"
    [
      "lib/x/a.ml:3:31: [C3] lock-order inversion: A.lock_b is acquired \
       under A.lock_a here, but A.lock_a under A.lock_b at lib/x/a.ml:5:31";
    ]
    [
      ( "lib/x/a.ml",
        "let lock_a = Mutex.create ()\n\
         let lock_b = Mutex.create ()\n\
         let ab () = Mutex.lock lock_a; Mutex.lock lock_b;\n\
        \  Mutex.unlock lock_b; Mutex.unlock lock_a\n\
         let ba () = Mutex.lock lock_b; Mutex.lock lock_a;\n\
        \  Mutex.unlock lock_a; Mutex.unlock lock_b\n" );
    ];
  check_diags "a consistent global order is fine" []
    [
      ( "lib/x/a.ml",
        "let lock_a = Mutex.create ()\n\
         let lock_b = Mutex.create ()\n\
         let ab () = Mutex.lock lock_a; Mutex.lock lock_b;\n\
        \  Mutex.unlock lock_b; Mutex.unlock lock_a\n\
         let ab2 () = Mutex.lock lock_a; Mutex.lock lock_b;\n\
        \  Mutex.unlock lock_b; Mutex.unlock lock_a\n" );
    ]

let test_c3_interprocedural () =
  (* The inner acquisition happens in a callee: the pair comes from the
     (held lock, callee's transitive acquisitions) product. *)
  check_diags "inversion through a call chain"
    [
      "lib/x/a.ml:4:31: [C3] lock-order inversion: A.lock_b is acquired \
       under A.lock_a here, but A.lock_a under A.lock_b at lib/x/a.ml:5:31";
    ]
    [
      ( "lib/x/a.ml",
        "let lock_a = Mutex.create ()\n\
         let lock_b = Mutex.create ()\n\
         let inner () = Mutex.lock lock_b; Mutex.unlock lock_b\n\
         let ab () = Mutex.lock lock_a; inner (); Mutex.unlock lock_a\n\
         let ba () = Mutex.lock lock_b; Mutex.lock lock_a;\n\
        \  Mutex.unlock lock_a; Mutex.unlock lock_b\n" );
    ]

let test_c3_reentrant () =
  check_diags "re-acquiring a held lock is self-deadlock"
    [
      "lib/x/a.ml:2:28: [C3] lock A.m acquired while already held (OCaml \
       mutexes are not reentrant: self-deadlock)";
    ]
    [
      ( "lib/x/a.ml",
        "let m = Mutex.create ()\n\
         let oops () = Mutex.lock m; Mutex.lock m;\n\
        \  Mutex.unlock m; Mutex.unlock m\n" );
    ];
  check_diags "sequential lock/unlock/lock of the same mutex is fine" []
    [
      ( "lib/x/a.ml",
        "let m = Mutex.create ()\n\
         let twice () = Mutex.lock m; Mutex.unlock m;\n\
        \  Mutex.lock m; Mutex.unlock m\n" );
    ]

(* ----------------------------- C4 --------------------------------- *)

let test_c4 () =
  check_diags "Printf.printf inside a critical section"
    [
      "lib/x/a.ml:2:29: [C4] blocking call Printf.printf while holding \
       {A.m}; move the I/O outside the critical section or annotate \
       [@cts.blocking_ok]";
    ]
    [
      ( "lib/x/a.ml",
        "let m = Mutex.create ()\n\
         let noisy () = Mutex.lock m; Printf.printf \"x\\n\"; Mutex.unlock \
         m\n" );
    ];
  check_diags "the same call outside the lock is fine" []
    [
      ( "lib/x/a.ml",
        "let m = Mutex.create ()\n\
         let ok () = Mutex.lock m; Mutex.unlock m; Printf.printf \"x\\n\"\n"
      );
    ];
  check_diags "[@cts.blocking_ok] is the reviewed escape hatch" []
    [
      ( "lib/x/a.ml",
        "let m = Mutex.create ()\n\
         let ok () = Mutex.lock m;\n\
        \  (Printf.printf \"x\\n\" [@cts.blocking_ok]); Mutex.unlock m\n" );
    ];
  check_diags "Condition.wait is exempt (it releases the mutex)" []
    [
      ( "lib/x/a.ml",
        "let m = Mutex.create ()\n\
         let c = Condition.create ()\n\
         let wait () = Mutex.lock m; Condition.wait c m; Mutex.unlock m\n" );
    ];
  check_diags "Printf.sprintf is not channel I/O" []
    [
      ( "lib/x/a.ml",
        "let m = Mutex.create ()\n\
         let fmt () = Mutex.lock m;\n\
        \  let s = Printf.sprintf \"x\" in Mutex.unlock m; s\n" );
    ]

let test_c4_transitive () =
  check_diags "a callee that may block is reported at the call site"
    [
      "lib/x/a.ml:3:27: [C4] call to A.emit may block (Printf.printf) while \
       holding {A.m}; move the I/O outside the critical section or annotate \
       [@cts.blocking_ok]";
    ]
    [
      ( "lib/x/a.ml",
        "let m = Mutex.create ()\n\
         let emit () = Printf.printf \"x\\n\"\n\
         let bad () = Mutex.lock m; emit (); Mutex.unlock m\n" );
    ]

(* ----------------------------- C5 --------------------------------- *)

let test_c5 () =
  check_diags "a DLS-derived value stored into shared state escapes"
    [
      "lib/x/a.ml:4:35: [C5] Domain.DLS-derived value stored into shared \
       state A.slot: domain-local data must not escape its domain";
    ]
    [
      ( "lib/x/a.ml",
        "let slot = ref []\n\
         let key = Domain.DLS.new_key (fun () -> [])\n\
         let leak () =\n\
        \  let mine = Domain.DLS.get key in slot := mine\n" );
    ];
  check_diags "keeping DLS data domain-local is fine" []
    [
      ( "lib/x/a.ml",
        "let key = Domain.DLS.new_key (fun () -> [])\n\
         let use () = let mine = Domain.DLS.get key in List.length mine\n" );
    ]

(* ----------------------- engine behaviours ------------------------- *)

let test_spawned_domains_are_roots () =
  (* A Domain.spawn closure is a task root: it must not inherit the
     spawner's lock state (no phantom C3 pairs), and its own effects
     are checked. *)
  check_diags "a spawn body's unguarded shared write is reported"
    [
      "lib/x/a.ml:2:36: [C1] := (A.hits) writes shared state reachable from \
       a Parallel pool task with no lock held, no atomic primitive and no \
       verifiable " ^ mechanisms ^ " mechanism on the path";
    ]
    [
      ( "lib/x/a.ml",
        "let hits = ref 0\n\
         let go () = Domain.spawn (fun () -> hits := 1)\n" );
    ];
  check_diags "spawning while holding a lock does not leak the lock" []
    [
      ( "lib/x/a.ml",
        "let m = Mutex.create ()\n\
         let m2 = Mutex.create ()\n\
         let go () =\n\
        \  Mutex.lock m;\n\
        \  let d = Domain.spawn (fun () -> Mutex.lock m2; Mutex.unlock m2) \
         in\n\
        \  Mutex.unlock m; d\n" );
    ]

let test_determinism_shuffle () =
  (* C1-C5 output must be byte-identical regardless of the order the
     sources are supplied in. *)
  let files =
    [
      ( "lib/x/a.ml",
        "let hits = ref 0\n\
         let bump () = hits := !hits + 1\n\
         let run pool xs = Parallel.iter pool (fun _y -> bump ()) xs\n" );
      ( "lib/x/b.ml",
        "let lock_a = Mutex.create ()\n\
         let lock_b = Mutex.create ()\n\
         let ab () = Mutex.lock lock_a; Mutex.lock lock_b;\n\
        \  Mutex.unlock lock_b; Mutex.unlock lock_a\n\
         let ba () = Mutex.lock lock_b; Mutex.lock lock_a;\n\
        \  Mutex.unlock lock_a; Mutex.unlock lock_b\n" );
      ( "lib/x/c.ml",
        "let m = Mutex.create ()\n\
         let noisy () = Mutex.lock m; Printf.printf \"x\\n\"; Mutex.unlock \
         m\n" );
      ("lib/x/d.ml", "let total = ref 0\nlet read () = !total\n");
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

let test_repo_fixtures () =
  (* The on-disk seeded fixtures (also exercised by `make
     lint-fixtures`): each must trigger exactly its rule at exactly its
     pinned location. *)
  let dir = T_env.repo_path "test/fixtures/lint/race/lib/racefix" in
  let expect file diags =
    let r = Lint.run_paths [ Filename.concat dir file ] in
    Alcotest.(check (list string))
      (file ^ " diagnostics") diags
      (List.filter_map
         (fun (d : Front.diagnostic) ->
           if d.rule.[0] = 'C' then
             Some (Printf.sprintf "%s:%d:%d:%s" d.file d.line d.col d.rule)
           else None)
         r.diagnostics)
  in
  expect "c1_unguarded.ml" [ "lib/racefix/c1_unguarded.ml:6:14:C1" ];
  expect "c1_badclaim.ml" [ "lib/racefix/c1_badclaim.ml:6:35:C1" ];
  expect "c1_badmutexname.ml" [ "lib/racefix/c1_badmutexname.ml:7:3:C1" ];
  expect "c1_stale.ml" [ "lib/racefix/c1_stale.ml:6:3:C1" ];
  expect "c2_inconsistent.ml" [ "lib/racefix/c2_inconsistent.ml:15:2:C2" ];
  expect "c3_inversion.ml"
    [
      "lib/racefix/c3_inversion.ml:10:2:C3";
      "lib/racefix/c3_inversion.ml:24:2:C3";
    ];
  expect "c4_blocking.ml" [ "lib/racefix/c4_blocking.ml:10:2:C4" ];
  expect "c5_escape.ml" [ "lib/racefix/c5_escape.ml:9:2:C5" ]

let test_repo_lints_clean () =
  (* The acceptance bar: every [@cts.guarded] site in the repository's
     own sources verifies, and no C1-C5 diagnostic remains. *)
  Alcotest.(check (list string))
    "no race diagnostics" [] (T_lint.repo_family 'C')

(* ----------------------- JSON report plumbing ---------------------- *)

let test_report_json () =
  let diags =
    [
      {
        Front.rule = "C1";
        file = "lib/x/a.ml";
        line = 2;
        col = 14;
        message = "msg";
      };
    ]
  in
  let json = Lint_report.json_of ~files_scanned:3 diags in
  let s = Obs_json.to_string json in
  Alcotest.(check string)
    "canonical shape"
    "{\"files_scanned\":3,\"diagnostics\":[{\"rule\":\"C1\",\"file\":\
     \"lib/x/a.ml\",\"line\":2,\"col\":14,\"message\":\"msg\"}]}"
    s;
  (* Round-trips through the strict reader. *)
  (match Obs_json.parse s with
  | Ok v -> Alcotest.(check bool) "round-trip" true (v = json)
  | Error e -> Alcotest.failf "parse: %s" e);
  (* Writable path succeeds... *)
  let tmp = Filename.temp_file "race_report" ".json" in
  (match Lint_report.write ~path:tmp json with
  | Ok () -> Sys.remove tmp
  | Error e -> Alcotest.failf "write to temp file: %s" e);
  (* ...an unwritable path is a reported error, not an exception. *)
  match Lint_report.write ~path:"/nonexistent_dir_xyz/r.json" json with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "write to an unwritable path reported Ok"

let suite =
  [
    Alcotest.test_case "C1: unguarded shared mutation" `Quick
      test_c1_unguarded;
    Alcotest.test_case "C1: verified mechanisms pass" `Quick
      test_c1_verified_mechanisms;
    Alcotest.test_case "C1: claims are verified, not trusted" `Quick
      test_c1_claims_not_trusted;
    Alcotest.test_case "C1: named-mutex claims" `Quick test_c1_named_mutex;
    Alcotest.test_case "C1: stale claims" `Quick test_c1_stale_claim;
    Alcotest.test_case "C2: inconsistent lock sets" `Quick test_c2;
    Alcotest.test_case "C3: lock-order inversion" `Quick test_c3_inversion;
    Alcotest.test_case "C3: inversion through calls" `Quick
      test_c3_interprocedural;
    Alcotest.test_case "C3: non-reentrant re-acquisition" `Quick
      test_c3_reentrant;
    Alcotest.test_case "C4: blocking under a lock" `Quick test_c4;
    Alcotest.test_case "C4: transitive may-block" `Quick test_c4_transitive;
    Alcotest.test_case "C5: DLS escape" `Quick test_c5;
    Alcotest.test_case "spawned domains are roots" `Quick
      test_spawned_domains_are_roots;
    Alcotest.test_case "diagnostics deterministic under shuffle" `Quick
      test_determinism_shuffle;
    Alcotest.test_case "seeded fixtures fire" `Quick test_repo_fixtures;
    Alcotest.test_case "repository races clean" `Quick test_repo_lints_clean;
    Alcotest.test_case "JSON report plumbing" `Quick test_report_json;
  ]
