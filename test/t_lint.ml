(* Tests for the determinism / domain-safety source lint (lib/lint),
   and for the whole lint run: every family, the shared scan, and the
   repository's own sources.

   Fixtures are in-memory sources fed through [Lint.run], the one entry
   point every family's tests use; each suite keeps its own family's
   diagnostics (and syntax diagnostics). Paths matter because rules
   L2-L5 key off them. Each rule gets a violating fixture pinned to its
   exact diagnostic and a clean counterpart proving the rule does not
   overfire. *)

let strings = Alcotest.(list string)

(* The diagnostics of family [letter] ('L', 'U', 'C' or 'E') and the
   syntax diagnostics, from a whole run. *)
let family letter srcs =
  List.filter_map
    (fun (d : Front.diagnostic) ->
      if d.rule = "syntax" || d.rule.[0] = letter then Some (Front.to_string d)
      else None)
    (Lint.run srcs).diagnostics

let lint srcs = family 'L' srcs

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let check_diags name expected srcs =
  Alcotest.check strings name expected (lint srcs)

(* ----------------------------- L1 --------------------------------- *)

let l1_message prim =
  Printf.sprintf
    "%s writes shared state reachable from a Parallel pool task; annotate \
     the enclosing definition with [@cts.guarded \
     \"mutex\"|\"atomic\"|\"domain-local\"] or keep the target \
     task-local"
    prim

let test_l1_shared () =
  check_diags "module-level table mutated inside a pool task"
    [ "lib/foo/foo.ml:3:30: [L1] " ^ l1_message "Hashtbl.replace" ]
    [
      ( "lib/foo/foo.ml",
        "let tbl = Hashtbl.create 7\n\
         let work pool xs =\n\
        \  Parallel.map pool (fun x -> Hashtbl.replace tbl x x) xs\n" );
    ]

let test_l1_task_local () =
  check_diags "freshly allocated state inside the task is fine" []
    [
      ( "lib/foo/foo.ml",
        "let work pool xs =\n\
        \  Parallel.map pool\n\
        \    (fun x ->\n\
        \      let h = Hashtbl.create 7 in\n\
        \      Hashtbl.replace h x x;\n\
        \      Hashtbl.length h)\n\
        \    xs\n" );
    ]

let test_l1_guarded () =
  check_diags "a named mechanism silences the rule" []
    [
      ( "lib/foo/foo.ml",
        "let tbl = Hashtbl.create 7\n\
         let[@cts.guarded \"mutex\"] put x = Hashtbl.replace tbl x x\n\
         let work pool xs = Parallel.map pool (fun x -> put x) xs\n" );
    ];
  check_diags "domain-local is an accepted mechanism" []
    [
      ( "lib/foo/foo.ml",
        "let key = Domain.DLS.new_key (fun () -> ref 0)\n\
         let[@cts.guarded \"domain-local\"] bump () =\n\
        \  incr (Domain.DLS.get key)\n\
         let work pool xs = Parallel.iter pool (fun _ -> bump ()) xs\n" );
    ]

let test_l1_reachability () =
  check_diags "mutation reached through a same-module helper"
    [ "lib/foo/foo.ml:2:14: [L1] " ^ l1_message "incr" ]
    [
      ( "lib/foo/foo.ml",
        "let count = ref 0\n\
         let bump () = incr count\n\
         let work pool xs = Parallel.iter pool (fun _ -> bump ()) xs\n" );
    ]

let test_l1_unreachable () =
  check_diags "the same mutation outside any pool task is not flagged" []
    [
      ( "lib/foo/foo.ml",
        "let count = ref 0\n\
         let bump () = incr count\n\
         let work xs = List.iter (fun _ -> bump ()) xs\n" );
    ]

let test_l1_blanket_suppression () =
  let diags =
    lint
      [
        ( "lib/foo/foo.ml",
          "let tbl = Hashtbl.create 7\n\
           let[@cts.guarded] put x = Hashtbl.replace tbl x x\n\
           let work pool xs = Parallel.map pool (fun x -> put x) xs\n" );
      ]
  in
  Alcotest.(check bool)
    "payload-less attribute is itself diagnosed"
    true
    (List.exists
       (fun d ->
         contains d
           "[@cts.guarded] must name its mechanism")
       diags);
  Alcotest.(check bool)
    "and it does not suppress the mutation report" true
    (List.exists
       (fun d -> contains d (l1_message "Hashtbl.replace"))
       diags);
  Alcotest.(check bool)
    "an unknown mechanism is diagnosed too" true
    (List.exists
       (fun d -> contains d "[@cts.guarded] must name its mechanism")
       (lint
          [
            ( "lib/foo/foo.ml",
              "let tbl = Hashtbl.create 7\n\
               let[@cts.guarded \"replay-log\"] put x =\n\
              \  Hashtbl.replace tbl x x\n" );
          ]))

(* ----------------------------- L2 --------------------------------- *)

let l2_message name =
  Printf.sprintf
    "%s: randomness outside lib/util/rng.ml and lib/bmark/synthetic.ml \
     breaks determinism"
    name

let test_l2 () =
  let src = "let f () = Random.float 1.0\n" in
  check_diags "Random in the synthesis core is flagged"
    [ "lib/cts_core/jitter.ml:1:11: [L2] " ^ l2_message "Random.float" ]
    [ ("lib/cts_core/jitter.ml", src) ];
  check_diags "the same call inside lib/util/rng.ml is exempt" []
    [ ("lib/util/rng.ml", src) ];
  check_diags "and inside lib/bmark/synthetic.ml" []
    [ ("lib/bmark/synthetic.ml", src) ];
  check_diags "Rng use outside the exempt files is flagged"
    [ "lib/dme/d.ml:1:12: [L2] " ^ l2_message "Rng.float" ]
    [ ("lib/dme/d.ml", "let f rng = Rng.float rng 1.0\n") ]

(* ----------------------------- L3 --------------------------------- *)

let test_l3 () =
  let src = "let now () = Unix.gettimeofday ()\n" in
  let l3 path =
    path
    ^ ":1:13: [L3] wall-clock call Unix.gettimeofday in lib/ (allowed \
       only under lib/report and through Obs_clock.now)"
  in
  check_diags "wall-clock in lib/ is flagged" [ l3 "lib/cts_core/t.ml" ]
    [ ("lib/cts_core/t.ml", src) ];
  check_diags "lib/report is exempt" [] [ ("lib/report/r.ml", src) ];
  check_diags "the bench harness is out of scope" [] [ ("bench/b.ml", src) ];
  check_diags "the Obs clock gateway is exempt" []
    [ ("lib/obs/obs_clock.ml", src) ];
  check_diags "the rest of lib/obs is not" [ l3 "lib/obs/obs.ml" ]
    [ ("lib/obs/obs.ml", src) ];
  check_diags "bin/ is out of scope" [] [ ("bin/b.ml", src) ]

(* ----------------------------- L4 --------------------------------- *)

let l4_message op =
  Printf.sprintf
    "float equality %s: use an epsilon helper (Numerics.Float_cmp) or \
     annotate [@cts.float_eq_ok]"
    op

let test_l4 () =
  check_diags "float equality in lib/dme is flagged"
    [ "lib/dme/d.ml:1:13: [L4] " ^ l4_message "=" ]
    [ ("lib/dme/d.ml", "let eq a b = a = b +. 0.\n") ];
  check_diags "float disequality too"
    [ "lib/cts_core/c.ml:1:13: [L4] " ^ l4_message "<>" ]
    [ ("lib/cts_core/c.ml", "let ne a b = a <> b *. 2.\n") ];
  check_diags "the annotation opts a comparison out" []
    [ ("lib/dme/d.ml", "let eq a b = (a = b +. 0.) [@cts.float_eq_ok]\n") ];
  check_diags "integer equality is not a float comparison" []
    [ ("lib/dme/d.ml", "let eq a b = a = b + 1\n") ];
  check_diags "modules outside the numeric core are out of scope" []
    [ ("lib/bmark/m.ml", "let eq a b = a = b +. 0.\n") ]

(* ----------------------------- L5 --------------------------------- *)

let test_l5 () =
  let ml = "type t = { mutable x : int }\nlet make () = { x = 0 }\n" in
  let mli_bare = "type t\nval make : unit -> t\n" in
  let mli_doc =
    "(** Domain-safety: callers own their [t]; no global state. *)\n\
     type t\n\
     val make : unit -> t\n"
  in
  check_diags "mutable module without the doc line is flagged"
    [
      "lib/foo/foo.mli:1:0: [L5] Foo holds mutable state but its .mli has \
       no 'Domain-safety:' doc line";
    ]
    [ ("lib/foo/foo.ml", ml); ("lib/foo/foo.mli", mli_bare) ];
  check_diags "the doc line satisfies the rule" []
    [ ("lib/foo/foo.ml", ml); ("lib/foo/foo.mli", mli_doc) ];
  check_diags "a module with no interface is not in scope" []
    [ ("lib/foo/foo.ml", ml) ];
  check_diags "an immutable module needs no line" []
    [ ("lib/foo/pure.ml", "let double x = 2 * x\n");
      ("lib/foo/pure.mli", "val double : int -> int\n") ]

(* --------------------------- plumbing ------------------------------ *)

let test_syntax_error () =
  match lint [ ("lib/foo/bad.ml", "let = = =\n") ] with
  | [ d ] ->
      Alcotest.(check bool)
        "unparseable input yields a [syntax] diagnostic" true
        (contains d "[syntax]")
  | ds ->
      Alcotest.failf "expected exactly one diagnostic, got %d" (List.length ds)

let test_sorted_deduped () =
  (* Two files, violations out of order; diagnostics come back sorted
     by (file, line, col). *)
  let diags =
    lint
      [
        ("lib/dme/z.ml", "let eq a b = a = b +. 0.\n");
        ("lib/dme/a.ml", "let eq a b = a = b +. 0.\n");
      ]
  in
  Alcotest.(check (list string))
    "sorted by path"
    [
      "lib/dme/a.ml:1:13: [L4] " ^ l4_message "=";
      "lib/dme/z.ml:1:13: [L4] " ^ l4_message "=";
    ]
    diags

let test_path_normalization () =
  (* Regression: `cts_lint ./lib` or an absolute path used to defeat
     the scoping prefixes (lib/..., bin/...), silently disabling every
     rule. Paths are now re-rooted at the last recognised top-level
     segment before scoping applies. *)
  Alcotest.(check string)
    "dot-slash prefix" "lib/dme/a.ml"
    (Front.normalize_path "./lib/dme/a.ml");
  Alcotest.(check string)
    "absolute path" "lib/dme/a.ml"
    (Front.normalize_path "/abs/checkout/lib/dme/a.ml");
  Alcotest.(check string)
    "parent segments resolved" "lib/dme/a.ml"
    (Front.normalize_path "lib/../lib/dme/./a.ml");
  Alcotest.(check string)
    "build sandbox prefix dropped" "test/t_lint.ml"
    (Front.normalize_path "_build/default/test/t_lint.ml");
  let src = "let eq a b = a = b +. 0.\n" in
  let expected = [ "lib/dme/a.ml:1:13: [L4] " ^ l4_message "=" ] in
  Alcotest.(check (list string))
    "dot-slash sources still lint" expected
    (lint [ ("./lib/dme/a.ml", src) ]);
  Alcotest.(check (list string))
    "absolute sources still lint" expected
    (lint [ ("/root/repo/lib/dme/a.ml", src) ])

(* ------------------------------ whole run ------------------------- *)

let test_scan_rejects_unlintable_paths () =
  (* A missing argument or a dangling symlink under a scanned directory
     is an error naming the path, not a silently smaller report. *)
  let dir = Filename.temp_file "scan" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let ml = Filename.concat dir "a.ml" and link = Filename.concat dir "b.ml" in
  Out_channel.with_open_bin ml (fun oc -> output_string oc "let x = 1\n");
  Unix.symlink (Filename.concat dir "gone.ml") link;
  let names_path path = function
    | Ok _ -> Alcotest.failf "scan accepted %s" path
    | Error msg -> Alcotest.(check bool) msg true (contains msg path)
  in
  names_path link (Front.scan [ dir ]);
  let missing = Filename.concat dir "missing_dir" in
  names_path missing (Front.scan [ ml; missing ]);
  Sys.remove link;
  Alcotest.(check (result (list string) string))
    "a clean directory scans" (Ok [ ml ]) (Front.scan [ dir ]);
  Sys.remove ml;
  Sys.rmdir dir

let test_whole_run_deterministic () =
  (* Every family fires, and the report is byte-identical under any
     order of the sources. The lib/x chain carries a unit through four
     files to z.ml: the units fixpoint must find it even when callers
     sort before their callees. *)
  let files =
    [
      ( "lib/race/ra.ml",
        "let hits = ref 0\n\
         let bump () = hits := !hits + 1\n\
         let run pool xs = Parallel.iter pool (fun _y -> bump ()) xs\n" );
      ( "lib/race/rb.ml",
        "let lock_a = Mutex.create ()\n\
         let lock_b = Mutex.create ()\n\
         let ab () = Mutex.lock lock_a; Mutex.lock lock_b;\n\
        \  Mutex.unlock lock_b; Mutex.unlock lock_a\n\
         let ba () = Mutex.lock lock_b; Mutex.lock lock_a;\n\
        \  Mutex.unlock lock_a; Mutex.unlock lock_b\n" );
      ( "lib/race/rc.ml",
        "let m = Mutex.create ()\n\
         let noisy () = Mutex.lock m; Printf.printf \"x\\n\"; Mutex.unlock \
         m\n" );
      ("lib/race/rd.ml", "let total = ref 0\nlet read () = !total\n");
      ( "lib/exc/ea.ml",
        "exception Boom\n\
         let helper x = if x > 3 then raise Boom\n\
         let run pool xs = Parallel.iter pool (fun y -> helper y) xs\n" );
      ( "lib/exc/eb.mli",
        "val size : int -> int [@@cts.raises \"Not_found\"]\n" );
      ("lib/exc/eb.ml", "let size x = x + 1\n");
      ("lib/exc/ec.ml", "let safe s = try int_of_string s with _ -> 0\n");
      ("lib/exc/ed.ml", "let total x = x * 2\n");
      ( "lib/foo/counter.ml",
        "let count = ref 0\n\
         let bump () = incr count\n\
         let work pool xs = Parallel.iter pool (fun _ -> bump ()) xs\n" );
      ("lib/x/a.ml", "let e () = B.f ()\n");
      ("lib/x/b.ml", "let f () = C.g ()\n");
      ("lib/x/c.ml", "let g () = D.h ()\n");
      ("lib/x/d.ml", "let h () = let t_ps = 1.0 in t_ps\n");
      ("lib/x/z.ml", "let bad len_um = A.e () +. len_um\n");
    ]
  in
  let run fs = List.map Front.to_string (Lint.run fs).diagnostics in
  let expected = run files in
  List.iter
    (fun rule ->
      Alcotest.(check bool)
        (rule ^ " fires") true
        (List.exists (fun d -> contains d ("[" ^ rule)) expected))
    [ "L1"; "U1"; "C1"; "E1" ];
  Alcotest.(check bool)
    "the unit crosses the four-file chain" true
    (List.mem
       "lib/x/z.ml:1:17: [U1] unit mismatch: (+.) combines ps with um"
       expected);
  let prop =
    QCheck.Test.make ~count:30
      ~name:"diagnostics independent of file-visit order"
      (QCheck.make
         QCheck.Gen.(shuffle_l files)
         ~print:(fun fs -> String.concat "," (List.map fst fs)))
      (fun shuffled -> run shuffled = expected)
  in
  QCheck.Test.check_exn prop

(* The repository's own sources, linted once for every suite that checks
   them. *)
let repo_run =
  lazy
    (let dirs = [ T_env.repo_path "lib"; T_env.repo_path "bin" ] in
     match Front.scan dirs with
     | Error msg -> Alcotest.fail msg
     | Ok paths ->
         Alcotest.(check bool) "sources found" true (List.length paths > 50);
         Lint.run_paths paths)

(* The repository's diagnostics of family [letter]. *)
let repo_family letter =
  List.filter_map
    (fun (d : Front.diagnostic) ->
      if d.rule.[0] = letter then Some (Front.to_string d) else None)
    (Lazy.force repo_run).diagnostics

let test_repo_lints_clean () =
  (* The acceptance bar: the repository's own sources carry no
     diagnostic of any family. The family suites check their own slice
     of the same run. *)
  Alcotest.(check (list string))
    "no diagnostics" []
    (List.map Front.to_string (Lazy.force repo_run).diagnostics)

let suite =
  [
    Alcotest.test_case "L1: shared mutation in pool task" `Quick test_l1_shared;
    Alcotest.test_case "L1: task-local allocation allowed" `Quick
      test_l1_task_local;
    Alcotest.test_case "L1: guarded mutation accepted" `Quick test_l1_guarded;
    Alcotest.test_case "L1: reachability through helpers" `Quick
      test_l1_reachability;
    Alcotest.test_case "L1: unreachable mutation not flagged" `Quick
      test_l1_unreachable;
    Alcotest.test_case "L1: blanket suppression rejected" `Quick
      test_l1_blanket_suppression;
    Alcotest.test_case "L2: randomness confinement" `Quick test_l2;
    Alcotest.test_case "L3: wall-clock confinement" `Quick test_l3;
    Alcotest.test_case "L4: float equality" `Quick test_l4;
    Alcotest.test_case "L5: Domain-safety doc lines" `Quick test_l5;
    Alcotest.test_case "syntax errors are reported" `Quick test_syntax_error;
    Alcotest.test_case "diagnostics sorted and deduped" `Quick
      test_sorted_deduped;
    Alcotest.test_case "path normalization" `Quick test_path_normalization;
    Alcotest.test_case "scan rejects unlintable paths" `Quick
      test_scan_rejects_unlintable_paths;
    Alcotest.test_case "whole run is order-independent" `Quick
      test_whole_run_deterministic;
    Alcotest.test_case "repository lints clean" `Quick test_repo_lints_clean;
  ]
