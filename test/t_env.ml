(* Shared, lazily built test environment: one Fast-profile delay/slew
   library per test-binary run (characterization takes ~1 s; the library
   is cached on disk next to the test binary). *)

(* A file next to the test binary (_build/default/test/test_all.exe):
   the library caches live there whatever the working directory, so a
   run from the repository root neither writes one into the root nor
   loads a stale one left there. *)
let beside_binary name = Filename.concat (Filename.dirname Sys.executable_name) name

(* A path under the repository root, derived from the test binary's own
   location, so fixture paths resolve the same whatever the working
   directory. *)
let repo_path rel = Filename.concat (beside_binary "../../..") rel

let tech = Circuit.Tech.default
let lib = Circuit.Buffer_lib.default_library

let dl =
  lazy
    (Delaylib.load_or_characterize ~profile:Delaylib.Fast
       ~cache:(beside_binary "test_delaylib_fast.txt") tech lib)

let get_dl () = Lazy.force dl

let b10 = Circuit.Buffer_lib.by_name lib "BUF10X"
let b20 = Circuit.Buffer_lib.by_name lib "BUF20X"
let b30 = Circuit.Buffer_lib.by_name lib "BUF30X"

(* Deterministic random sink sets. *)
let random_sinks ?(cap_lo = 5e-15) ?(cap_hi = 30e-15) ~seed ~n ~die () =
  let rng = Util.Rng.create seed in
  List.init n (fun i ->
      {
        Sinks.name = Printf.sprintf "t%d_%d" seed i;
        pos =
          Geometry.Point.make (Util.Rng.float rng die) (Util.Rng.float rng die);
        cap = Util.Rng.float_range rng cap_lo cap_hi;
      })
