(* Baseline regression gate. See qor_compare.mli for the verdict and
   threshold semantics. *)

module F = Numerics.Float_cmp

type direction = Lower_better | Higher_better | Informational

type threshold = { abs_tol : float; rel_tol : float; direction : direction }

let info = { abs_tol = 0.; rel_tol = 0.; direction = Informational }

let prefixed p name =
  String.length name >= String.length p
  && String.equal (String.sub name 0 (String.length p)) p

let default_threshold name =
  match name with
  | "timing.skew_ps" -> { abs_tol = 0.5; rel_tol = 0.02; direction = Lower_better }
  | "timing.max_latency_ps" | "timing.mean_latency_ps" ->
      { abs_tol = 1.0; rel_tol = 0.02; direction = Lower_better }
  | "timing.worst_slew_ps" ->
      { abs_tol = 0.5; rel_tol = 0.02; direction = Lower_better }
  | "slew_margin.min_ps" ->
      { abs_tol = 0.5; rel_tol = 0.05; direction = Higher_better }
  | "wire.total_um" -> { abs_tol = 1.0; rel_tol = 0.02; direction = Lower_better }
  | "wire.snaked_um" -> { abs_tol = 1.0; rel_tol = 0.05; direction = Lower_better }
  | "buffers.count" -> { abs_tol = 0.5; rel_tol = 0.05; direction = Lower_better }
  | "buffers.area_x" -> { abs_tol = 1.0; rel_tol = 0.05; direction = Lower_better }
  (* Any shortfall at all means the pool degraded: gate at zero slack. *)
  | "obs.parallel.spawn_shortfall" ->
      { abs_tol = 0.; rel_tol = 0.; direction = Lower_better }
  (* Span-table cells computed: buffers x load classes, one table per
     synthesis. A rise means more tables or a bigger library. *)
  | "obs.run.span_cache_misses" ->
      { abs_tol = 8.; rel_tol = 0.05; direction = Lower_better }
  (* Hit counters move whenever work moves; gating them would double-
     count the work counters. The DP prune/fallback split is a quality
     signal, not a cost. Visible, never gating. *)
  | "obs.run.span_cache_hits" | "obs.dp.pruned" | "obs.dp.fallbacks" -> info
  (* Every other counter, unknown ones included, measures work
     performed (split points, delay-library evals, DP transitions,
     timing stages...): more of it is a cost regression. *)
  | _ when prefixed "obs." name ->
      { abs_tol = 16.; rel_tol = 0.05; direction = Lower_better }
  (* Cache effectiveness: absolute percentage points of slack, so a
     96% -> 95% wobble passes and a 96% -> 80% collapse gates. *)
  | _ when prefixed "rate." name ->
      { abs_tol = 2.0; rel_tol = 0.; direction = Higher_better }
  | _ ->
      (* slew_margin.p50/p95, tree.*, gauge.*, hist.*, and any metric a
         future schema version introduces: visible, never gating. *)
      info

type verdict = Improved | Unchanged | Regressed | New | Dropped | Changed

type row = {
  metric : string;
  base : float option;
  cand : float option;
  verdict : verdict;
}

type report = {
  rows : row list;
  n_regressed : int;
  n_improved : int;
  warnings : string list;
}

(* [adverse] is the change in the metric's bad direction. *)
let graded th base adverse =
  let tau = Float.max th.abs_tol (th.rel_tol *. Float.abs base) in
  (* Strictly beyond the threshold, robust to rounding noise: a delta
     exactly at tau is not a regression. *)
  if F.definitely_lt tau adverse then Regressed
  else if F.definitely_lt tau (-.adverse) then Improved
  else Unchanged

let classify th base cand =
  if F.approx_eq base cand then Unchanged
  else
    match th.direction with
    | Informational -> Changed
    | Lower_better -> graded th base (cand -. base)
    | Higher_better -> graded th base (base -. cand)

let of_metrics ?(threshold = default_threshold) ~baseline candidate =
  let rows_base =
    List.map
      (fun (name, b) ->
        match List.assoc_opt name candidate with
        | None -> { metric = name; base = Some b; cand = None; verdict = Dropped }
        | Some c ->
            {
              metric = name;
              base = Some b;
              cand = Some c;
              verdict = classify (threshold name) b c;
            })
      baseline
  in
  let rows_new =
    List.filter_map
      (fun (name, c) ->
        if List.mem_assoc name baseline then None
        else Some { metric = name; base = None; cand = Some c; verdict = New })
      candidate
  in
  let rows = rows_base @ rows_new in
  let count v = List.length (List.filter (fun r -> r.verdict = v) rows) in
  {
    rows;
    n_regressed = count Regressed;
    n_improved = count Improved;
    warnings = [];
  }

let compare_snapshots ?threshold ~(baseline : Qor.t) (candidate : Qor.t) =
  let rep =
    of_metrics ?threshold ~baseline:(Qor.metrics baseline)
      (Qor.metrics candidate)
  in
  let warn = ref [] in
  let add fmt = Printf.ksprintf (fun s -> warn := s :: !warn) fmt in
  if not (String.equal baseline.Qor.label candidate.Qor.label) then
    add "label differs: %S vs %S — not the same benchmark?"
      baseline.Qor.label candidate.Qor.label;
  if not (String.equal baseline.Qor.profile candidate.Qor.profile) then
    add "profile differs: %S vs %S" baseline.Qor.profile candidate.Qor.profile;
  if not (F.approx_eq baseline.Qor.scale candidate.Qor.scale) then
    add "scale differs: %g vs %g" baseline.Qor.scale candidate.Qor.scale;
  if baseline.Qor.sinks <> candidate.Qor.sinks then
    add "sink count differs: %d vs %d" baseline.Qor.sinks candidate.Qor.sinks;
  if baseline.Qor.version <> candidate.Qor.version then
    add "schema version differs: %d vs %d (missing metrics report as \
         new/dropped, never as regressions)"
      baseline.Qor.version candidate.Qor.version;
  { rep with warnings = List.rev !warn }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let verdict_word = function
  | Improved -> "improved"
  | Unchanged -> "ok"
  | Regressed -> "REGRESSED"
  | New -> "new"
  | Dropped -> "dropped"
  | Changed -> "changed"

let cell = function
  | None -> "-"
  | Some v ->
      if Float.is_integer v && Float.abs v < 1e15 then
        Printf.sprintf "%.0f" v
      else Printf.sprintf "%.3f" v

let render rep =
  let interesting =
    List.filter (fun r -> r.verdict <> Unchanged) rep.rows
  in
  let b = Buffer.create 512 in
  (if interesting = [] then
     Buffer.add_string b "all metrics unchanged\n"
   else
     let rows =
       List.map
         (fun r ->
           let delta, pct =
             match (r.base, r.cand) with
             | Some bv, Some cv ->
                 ( Printf.sprintf "%+.3f" (cv -. bv),
                   if F.approx_eq bv 0. then "-"
                   else Tables.pct ((cv -. bv) /. bv) )
             | _ -> ("-", "-")
           in
           [ r.metric; cell r.base; cell r.cand; delta; pct;
             verdict_word r.verdict ])
         interesting
     in
     Buffer.add_string b
       (Tables.render
          ~header:[ "metric"; "baseline"; "candidate"; "delta"; "rel"; "verdict" ]
          rows));
  List.iter
    (fun w -> Buffer.add_string b (Printf.sprintf "warning: %s\n" w))
    rep.warnings;
  Buffer.add_string b
    (Printf.sprintf "verdict: %d regressed, %d improved, %d unchanged of %d metrics\n"
       rep.n_regressed rep.n_improved
       (List.length rep.rows - List.length interesting)
       (List.length rep.rows));
  Buffer.contents b

let has_regression rep = rep.n_regressed > 0
let exit_code rep = if has_regression rep then 6 else 0

let compare_files ?threshold ~baseline candidate =
  match Qor.load_file baseline with
  | Error _ as e -> e
  | Ok b -> (
      match Qor.load_file candidate with
      | Error _ as e -> e
      | Ok c -> Ok (compare_snapshots ?threshold ~baseline:b c))
