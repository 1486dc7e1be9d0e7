(* Cost-regression gate over Obs_snapshot files. See obs_diff.mli for
   the budget rationale. *)

module C = Qor_compare
module F = Numerics.Float_cmp

let prefixed p name =
  String.length name >= String.length p
  && String.equal (String.sub name 0 (String.length p)) p

let info = { C.abs_tol = 0.; rel_tol = 0.; direction = C.Informational }

let default_threshold name =
  let open C in
  match name with
  (* Any shortfall at all means the pool degraded: gate at zero slack. *)
  | "parallel.spawn_shortfall" ->
      { abs_tol = 0.; rel_tol = 0.; direction = Lower_better }
  (* Span-table cells computed: buffers x load classes, one table per
     synthesis. A rise means more tables or a bigger library. *)
  | "run.span_cache_misses" ->
      { abs_tol = 8.; rel_tol = 0.05; direction = Lower_better }
  (* Hit counters move whenever work moves; gating them would double-
     count the work counters below. Visible, never gating. *)
  | "run.span_cache_hits" -> info
  (* The DP prune/fallback split is a quality signal, not a cost. *)
  | "dp.pruned" | "dp.fallbacks" -> info
  | name when prefixed "gauge." name -> info
  | name when prefixed "hist." name -> info
  (* Cache effectiveness: absolute percentage points of slack, so a
     96% -> 95% wobble passes and a 96% -> 80% collapse gates. *)
  | name when prefixed "rate." name ->
      { abs_tol = 2.0; rel_tol = 0.; direction = Higher_better }
  (* Everything else in the counters section measures work performed
     (maze bins, delay-library evals, DP transitions, timing stages...):
     more of it is a cost regression. *)
  | _ -> { abs_tol = 16.; rel_tol = 0.05; direction = Lower_better }

let compare_snapshots ?(threshold = default_threshold)
    ~(baseline : Obs_snapshot.t) (candidate : Obs_snapshot.t) =
  let rep =
    C.of_metrics ~threshold
      ~baseline:(Obs_snapshot.metrics baseline)
      (Obs_snapshot.metrics candidate)
  in
  let warn = ref [] in
  let add fmt = Printf.ksprintf (fun s -> warn := s :: !warn) fmt in
  if not (String.equal baseline.Obs_snapshot.label candidate.Obs_snapshot.label)
  then
    add "label differs: %S vs %S — not the same benchmark?"
      baseline.Obs_snapshot.label candidate.Obs_snapshot.label;
  if baseline.Obs_snapshot.version <> candidate.Obs_snapshot.version then
    add
      "schema version differs: %d vs %d (missing metrics report as \
       new/dropped, never as regressions)"
      baseline.Obs_snapshot.version candidate.Obs_snapshot.version;
  { rep with C.warnings = List.rev !warn }

let compare_files ?threshold ~baseline candidate =
  match Obs_snapshot.load_file baseline with
  | Error _ as e -> e
  | Ok b -> (
      match Obs_snapshot.load_file candidate with
      | Error _ as e -> e
      | Ok c -> Ok (compare_snapshots ?threshold ~baseline:b c))
