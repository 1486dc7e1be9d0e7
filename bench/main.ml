(* Benchmark harness: the jobs no other front end does. The paper's
   tables and figures are regenerated by `cts_run experiments`.

   Usage:
     dune exec bench/main.exe                  -- kernel timing table
     dune exec bench/main.exe -- alloc-gate    -- allocation gate (exit 1 on a breach)
     dune exec bench/main.exe -- parallel      -- writes BENCH_parallel.json

   Each mode characterizes its delay library in-process: the timing
   table at the accurate profile, the gate and the parallel bench at the
   fast one. *)

let characterize profile =
  Delaylib.characterize ~profile Kernels.tech Kernels.lib

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] | [ "kernels" ] -> Kernels.run (characterize Delaylib.Accurate)
  | [ "alloc-gate" ] -> Kernels.alloc_gate (characterize Delaylib.Fast)
  | [ "parallel" ] -> Par_bench.run ()
  | args ->
      Printf.eprintf
        "main.exe: unknown arguments %S; usage: main.exe [kernels | \
         alloc-gate | parallel]\n"
        (String.concat " " args);
      exit 1
