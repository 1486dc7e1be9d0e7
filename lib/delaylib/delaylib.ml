module W = Waveform
module T = Spice_sim.Transient
module Tech = Circuit.Tech
module Buffer_lib = Circuit.Buffer_lib
module Rc_tree = Circuit.Rc_tree
module Polyfit = Numerics.Polyfit

let src = Logs.Src.create "delaylib" ~doc:"Delay/slew library characterization"

module Log = (val Logs.src_log src : Logs.LOG)

module Wave_gen = Wave_gen

type profile = Fast | Accurate

let profile_name = function Fast -> "fast" | Accurate -> "accurate"

type single_fit = {
  buf_delay_fit : Polyfit.surface2;
  wire_delay_fit : Polyfit.surface2;
  wire_slew_fit : Polyfit.surface2;
}

type branch_fit = {
  delay_left_fit : Polyfit.surface3;
  delay_right_fit : Polyfit.surface3;
  slew_left_fit : Polyfit.surface3;
  slew_right_fit : Polyfit.surface3;
}

type t = {
  tech : Tech.t;
  buffers : Buffer_lib.t list;
  first_buffer : Buffer_lib.t;
  names : string array;  (** Buffer slots: the cell names, library order. *)
  classes : float array;  (** Load-capacitance classes (F), ascending. *)
  bound_lo : float array;
      (** Per boundary between classes [k] and [k + 1]: the lower edge of
          its undecided window (see {!class_index}). *)
  bound_hi : float array;  (** Upper edges of the same windows. *)
  fast_lo : float;
      (** Caps in [[fast_lo, fast_hi]] take the boundary search; the
          range excludes 0, negatives, non-finite and extreme caps. *)
  fast_hi : float;
  branch_classes : int array;  (** Indices into [classes] used for branches. *)
  slew_lo : float;
  slew_hi : float;
  len_lo : float;
  len_hi : float;
  blen_lo : float;
  blen_hi : float;
  singles : single_fit array;
      (** Flat [(buffer slot * n_classes) + class] table: every pair has
          a fit. *)
  branches : (string * int * int, branch_fit) Hashtbl.t;
  residuals : (string * float * float) list;
}

type single_eval = { buf_delay : float; wire_delay : float; wire_slew : float }

type branch_eval = {
  delay_left : float;
  delay_right : float;
  slew_left : float;
  slew_right : float;
}

(* ------------------------------------------------------------------ *)
(* Sweep definitions                                                   *)

let ps x = x *. 1e-12

let single_sweep = function
  | Fast ->
      (2, [ ps 30.; ps 80.; ps 150. ], [ 25.; 200.; 500.; 900.; 1400. ])
  | Accurate ->
      ( 4,
        [ ps 20.; ps 40.; ps 70.; ps 100.; ps 140.; ps 190.; ps 250. ],
        [ 10.; 60.; 150.; 300.; 500.; 750.; 1050.; 1400.; 1800. ] )

(* Note: every sweep needs at least (degree + 1) distinct values per
   dimension, otherwise high-order basis columns collapse onto lower ones
   and mid-grid evaluation loses coefficient mass. *)
let branch_sweep = function
  | Fast -> (2, [ ps 40.; ps 80.; ps 120. ], [ 50.; 300.; 700.; 1100. ])
  | Accurate ->
      (3, [ ps 30.; ps 70.; ps 120.; ps 180. ], [ 25.; 150.; 400.; 700.; 1050. ])

(* Gate class (a typical buffer input cap) plus three sink classes,
   positive and each more than 1e-6 relative above the last: the
   exactness argument of [class_index] rests on that ratio. *)
let default_classes = [| 0.75e-15; 5e-15; 15e-15; 35e-15 |]
let default_branch_classes = [| 0; 2; 3 |]

(* ------------------------------------------------------------------ *)
(* Characterization circuits                                           *)

(* A driver into one wire and its tagged load, and into two wires
   (left, right) and theirs. The wire discretization depends on the
   length alone, so every load class (or class pair) of a length gives
   a stage of one shape: the lanes of one run. *)
let single_stage tech ~length load_cap =
  let load = Rc_tree.leaf ~tag:"load" load_cap in
  let r, chain = Rc_tree.wire tech ~length load in
  Rc_tree.node [ (r, chain) ]

let branch_stage tech ~len_left ~len_right (cap_left, cap_right) =
  let left = Rc_tree.leaf ~tag:"left" cap_left in
  let right = Rc_tree.leaf ~tag:"right" cap_right in
  let rl, cl = Rc_tree.wire tech ~length:len_left left in
  let rr, cr = Rc_tree.wire tech ~length:len_right right in
  Rc_tree.node [ (rl, cl); (rr, cr) ]

(* The runs of one (buffer, slew) task share a driver, so they share
   stage 1's trajectory through [stage1]. *)
let simulate_lanes tech ~stage1 drive input stages =
  T.simulate_lanes ~config:Wave_gen.char_config ~stage1 tech (T.Driven_buffer (drive, input)) stages

(* One simulation's samples: buffer delay, wire delay and load slew. *)
let measure_single tech input res =
  Obs.incr Obs.Char_sims;
  let out = T.root_waveform res in
  let vdd = tech.Tech.vdd in
  match
    ( W.delay_50 input out ~vdd,
      T.stage_delay res ~input ~tag:"load",
      T.node_slew res ~tag:"load" )
  with
  | Some bd, Some total, Some slew -> Some (bd, total -. bd, slew)
  | _, _, _ -> None

(* Delays from the buffer output to each load, and each load's slew. *)
let measure_branch tech res =
  Obs.incr Obs.Char_sims;
  let out = T.root_waveform res in
  let vdd = tech.Tech.vdd in
  let delay tag = W.delay_50 out (T.waveform res tag) ~vdd in
  match
    ( delay "left",
      delay "right",
      T.node_slew res ~tag:"left",
      T.node_slew res ~tag:"right" )
  with
  | Some dl, Some dr, Some sl, Some sr -> Some (dl, dr, sl, sr)
  | _, _, _, _ -> None

(* ------------------------------------------------------------------ *)
(* Fitting                                                             *)

let residual_stats label fit_eval pts expected =
  let predicted = Array.map fit_eval pts in
  let rms = Util.Stats.rms_error predicted expected in
  let worst = Util.Stats.max_abs_error predicted expected in
  (label, rms, worst)

(* ------------------------------------------------------------------ *)
(* Characterization                                                    *)

(* Relative half-width of the undecided window around each class
   boundary (see [class_index]). *)
let window = 1e-9

(* Slot of a cell name in [names]; -1 when absent. *)
let rec scan_name names n i name =
  if i >= n then -1
  else if String.equal (Array.unsafe_get names i) name then i
  else scan_name names n (i + 1) name

let characterize ?(profile = Accurate) ?pool tech buffers =
  let first_buffer =
    match buffers with
    | b :: _ -> b
    | [] -> invalid_arg "Delaylib.characterize: no buffers"
  in
  let names =
    Array.of_list (List.map (fun (b : Buffer_lib.t) -> b.Buffer_lib.name) buffers)
  in
  Array.iteri
    (fun i n ->
      if scan_name names i 0 n >= 0 then
        invalid_arg ("Delaylib.characterize: duplicate buffer " ^ n))
    names;
  let pool = match pool with Some p -> p | None -> Parallel.default_pool () in
  let deg_s, slews, lens = single_sweep profile in
  let deg_b, bslews, blens = branch_sweep profile in
  let classes = default_classes in
  let branch_classes = default_branch_classes in
  let pairs =
    Array.of_list
      (List.concat_map
         (fun cl ->
           List.filter_map
             (fun cr -> if cl <= cr then Some (cl, cr) else None)
             (Array.to_list branch_classes))
         (Array.to_list branch_classes))
  in
  let n_buf = Array.length names
  and n_cls = Array.length classes
  and n_pairs = Array.length pairs in
  (* Input waveforms shaped by a real input buffer, one per sweep slew:
     the single-wire slews', then the branch slews'. [Wave_gen] memoizes
     its runs by wire length, so a slew in both sweeps is simulated
     once. Computed up front on the calling domain; the jobs below only
     read them. *)
  let binput = Buffer_lib.smallest buffers in
  let waves = Wave_gen.buffer_output_waves tech binput ~slews:(slews @ bslews) in
  let n_slews = List.length slews in
  let single_waves = List.filteri (fun i _ -> i < n_slews) waves
  and branch_waves = List.filteri (fun i _ -> i >= n_slews) waves in
  (* Pool tasks, one per (buffer, slew), runnable on any domain: every
     length (pair) of the sweep, each simulated once with the load
     classes (class pairs) as its lanes. Per length, the samples come
     back in class (pair) order. *)
  let single_samples (drive : Buffer_lib.t) input () =
    let stage1 = T.stage1 () in
    List.map
      (fun length ->
        let res =
          simulate_lanes tech ~stage1 drive input (Array.map (single_stage tech ~length) classes)
        in
        (length, Array.map (measure_single tech input) res))
      lens
  in
  let branch_samples (drive : Buffer_lib.t) input () =
    let stage1 = T.stage1 () in
    List.concat_map
      (fun len_left ->
        List.map
          (fun len_right ->
            let stage (cl, cr) =
              branch_stage tech ~len_left ~len_right (classes.(cl), classes.(cr))
            in
            let res = simulate_lanes tech ~stage1 drive input (Array.map stage pairs) in
            ((len_left, len_right), Array.map (measure_branch tech) res))
          blens)
      blens
  in
  let per_slew task waves =
    Array.of_list (List.concat_map (fun d -> List.map (task d) waves) buffers)
  in
  let run jobs = Parallel.map pool (fun job -> job ()) jobs in
  let singles_at = run (per_slew single_samples single_waves) in
  let branches_at = run (per_slew branch_samples branch_waves) in
  (* The fits: per (buffer, class), then per (buffer, class pair), each
     over its samples in slew-major order, and each with its residuals
     in the order the library text lists them. That order fixes the fit
     bits, the residual list and the text. A sample whose run misses a
     crossing is left out. *)
  let dropped sample =
    Log.warn (fun m -> m "dropping sample %s: a crossing is missing" sample)
  in
  let fit_single bi ci =
    let pts = ref [] and bd = ref [] and wd = ref [] and ws = ref [] in
    List.iteri
      (fun si slew ->
        List.iter
          (fun (length, samples) ->
            match samples.(ci) with
            | Some (b, w, s) ->
                pts := (slew, length) :: !pts;
                bd := b :: !bd;
                wd := w :: !wd;
                ws := s :: !ws
            | None -> dropped (Printf.sprintf "%s/%d L=%g" names.(bi) ci length))
          singles_at.((bi * n_slews) + si))
      slews;
    let pts = Array.of_list (List.rev !pts) in
    let bd = Array.of_list (List.rev !bd) in
    let wd = Array.of_list (List.rev !wd) in
    let ws = Array.of_list (List.rev !ws) in
    let fit = Polyfit.fit2 ~degree:deg_s in
    let f =
      {
        buf_delay_fit = fit pts bd;
        wire_delay_fit = fit pts wd;
        wire_slew_fit = fit pts ws;
      }
    in
    let lbl kind = Printf.sprintf "%s/c%d/%s" names.(bi) ci kind in
    ( f,
      [
        residual_stats (lbl "wire_slew")
          (fun (s, l) -> Polyfit.eval2 f.wire_slew_fit s l)
          pts ws;
        residual_stats (lbl "wire_delay")
          (fun (s, l) -> Polyfit.eval2 f.wire_delay_fit s l)
          pts wd;
        residual_stats (lbl "buf_delay")
          (fun (s, l) -> Polyfit.eval2 f.buf_delay_fit s l)
          pts bd;
      ] )
  in
  let fit_branch bi pi =
    let pts = ref []
    and dl = ref []
    and dr = ref []
    and sl = ref []
    and sr = ref [] in
    List.iteri
      (fun si slew ->
        List.iter
          (fun ((len_left, len_right), samples) ->
            match samples.(pi) with
            | Some (a, b, c, d) ->
                pts := (slew, len_left, len_right) :: !pts;
                dl := a :: !dl;
                dr := b :: !dr;
                sl := c :: !sl;
                sr := d :: !sr
            | None ->
                let cl, cr = pairs.(pi) in
                dropped
                  (Printf.sprintf "%s/b%d-%d L=%g,%g" names.(bi) cl cr len_left len_right))
          branches_at.((bi * List.length bslews) + si))
      bslews;
    let pts = Array.of_list (List.rev !pts) in
    let arr r = Array.of_list (List.rev !r) in
    let fit = Polyfit.fit3 ~degree:deg_b in
    let f =
      {
        delay_left_fit = fit pts (arr dl);
        delay_right_fit = fit pts (arr dr);
        slew_left_fit = fit pts (arr sl);
        slew_right_fit = fit pts (arr sr);
      }
    in
    let cl, cr = pairs.(pi) in
    let lbl kind = Printf.sprintf "%s/b%d-%d/%s" names.(bi) cl cr kind in
    ( f,
      [
        residual_stats (lbl "slew_left")
          (fun (s, a, b) -> Polyfit.eval3 f.slew_left_fit s a b)
          pts (arr sl);
        residual_stats (lbl "delay_left")
          (fun (s, a, b) -> Polyfit.eval3 f.delay_left_fit s a b)
          pts (arr dl);
      ] )
  in
  let singles =
    Array.init (n_buf * n_cls) (fun idx -> fit_single (idx / n_cls) (idx mod n_cls))
  and branch_fits =
    Array.init (n_buf * n_pairs) (fun idx -> fit_branch (idx / n_pairs) (idx mod n_pairs))
  in
  let branches = Hashtbl.create 16 in
  Array.iteri
    (fun idx (f, _) ->
      let cl, cr = pairs.(idx mod n_pairs) in
      Hashtbl.replace branches (names.(idx / n_pairs), cl, cr) f)
    branch_fits;
  (* Buffer by buffer: its singles' residuals, then its branches'. *)
  let chunks fits n bi = List.concat_map (fun k -> snd fits.((bi * n) + k)) (List.init n Fun.id) in
  let residuals =
    List.concat_map
      (fun bi -> chunks singles n_cls bi @ chunks branch_fits n_pairs bi)
      (List.init n_buf Fun.id)
  in
  (* The sweep lists are non-empty literals sorted ascending; fold for
     the bounds rather than trusting the ordering with a partial
     List.hd. *)
  let lo = List.fold_left Float.min Float.infinity
  and hi = List.fold_left Float.max 0. in
  let bound k = sqrt (classes.(k) *. classes.(k + 1)) in
  {
    tech;
    buffers;
    first_buffer;
    names;
    classes;
    bound_lo = Array.init (n_cls - 1) (fun k -> bound k *. (1. -. window));
    bound_hi = Array.init (n_cls - 1) (fun k -> bound k *. (1. +. window));
    (* Every quotient cap / class stays within [2^-500, 2^500] over this
       range: normal floats whose log is accurate to ~1e-13. *)
    fast_lo = classes.(n_cls - 1) *. 0x1p-500;
    fast_hi = classes.(0) *. 0x1p500;
    branch_classes;
    slew_lo = lo slews;
    slew_hi = hi slews;
    len_lo = lo lens;
    len_hi = hi lens;
    blen_lo = lo blens;
    blen_hi = hi blens;
    singles = Array.map fst singles;
    branches;
    residuals;
  }

(* ------------------------------------------------------------------ *)
(* Lookup                                                              *)

let clamp lo hi x = Float.max lo (Float.min hi x)

(* The reference rule: the nearest class in log space, first wins on a
   tie. Allocation-free: a plain loop with non-escaping locals (the
   closure-and-ref version cost ~23 minor words per call). *)
let class_index_log t cap =
  let classes = t.classes in
  let n = Array.length classes in
  let best = ref 0 in
  let best_d = ref Float.infinity in
  for i = 0 to n - 1 do
    let d = Float.abs (log (cap /. Array.unsafe_get classes i)) in
    if d < !best_d then begin
      best := i;
      best_d := d
    end
  done;
  !best

(* First class whose upper boundary window lies above [cap]; -1 when
   [cap] falls inside a window. The float annotations matter: without
   them the comparisons are polymorphic and each read boxes a float. *)
let rec scan_bounds (lo : float array) (hi : float array) n k (cap : float) =
  if k >= n then n
  else if cap < Array.unsafe_get lo k then k
  else if cap <= Array.unsafe_get hi k then -1
  else scan_bounds lo hi n (k + 1) cap

(* Log-free form of [class_index_log]. Classes ascend by more than
   1e-6 relative ([default_classes]; a test holds it), so the nearest
   class in log space is decided by the geometric-mean boundaries
   sqrt (c_k c_k+1). Outside the 1e-9 windows around them the true log
   distances of the two nearest classes differ by more than 2e-9, while
   over the fast range each computed distance is within ~1e-13 of the
   true one: the loop's comparisons cannot flip, so both rules pick the
   same class. Inside a window, at caps <= 0, non-finite caps and caps
   so extreme that a quotient could leave the normal range, the loop
   itself decides. *)
let class_index t cap =
  if cap >= t.fast_lo && cap <= t.fast_hi then begin
    let k =
      scan_bounds t.bound_lo t.bound_hi (Array.length t.bound_lo) 0 cap
    in
    if k >= 0 then k else class_index_log t cap
  end
  else class_index_log t cap

let branch_class_index t cap =
  let bcs = t.branch_classes in
  let n = Array.length bcs in
  let best = ref bcs.(0) in
  let best_d = ref Float.infinity in
  for k = 0 to n - 1 do
    let i = Array.unsafe_get bcs k in
    let d = Float.abs (log (cap /. t.classes.(i))) in
    if d < !best_d then begin
      best := i;
      best_d := d
    end
  done;
  !best

let find_single t (drive : Buffer_lib.t) cap =
  let names = t.names in
  let slot = scan_name names (Array.length names) 0 drive.Buffer_lib.name in
  if slot < 0 then invalid_arg ("Delaylib: unknown drive buffer " ^ drive.name);
  Array.unsafe_get t.singles
    ((slot * Array.length t.classes) + class_index t cap)

let eval_single t ~drive ~load_cap ~input_slew ~length =
  Obs.incr Obs.Delay_evals_single;
  let f = find_single t drive load_cap in
  let s = clamp t.slew_lo t.slew_hi input_slew in
  let l = clamp t.len_lo t.len_hi length in
  {
    buf_delay = Float.max 0. (Polyfit.eval2 f.buf_delay_fit s l);
    wire_delay = Float.max 0. (Polyfit.eval2 f.wire_delay_fit s l);
    wire_slew = Float.max 1e-13 (Polyfit.eval2 f.wire_slew_fit s l);
  }

(* The two lookups below evaluate only the surfaces their callers read;
   each is the same expression as the matching [eval_single] field. *)
let wire_delay t ~drive ~load_cap ~input_slew ~length =
  Obs.incr Obs.Delay_evals_single;
  let f = find_single t drive load_cap in
  let s = clamp t.slew_lo t.slew_hi input_slew in
  let l = clamp t.len_lo t.len_hi length in
  Float.max 0. (Polyfit.eval2 f.wire_delay_fit s l)

let stage_delay t ~drive ~load_cap ~input_slew ~length =
  Obs.incr Obs.Delay_evals_single;
  let f = find_single t drive load_cap in
  let s = clamp t.slew_lo t.slew_hi input_slew in
  let l = clamp t.len_lo t.len_hi length in
  Float.max 0. (Polyfit.eval2 f.buf_delay_fit s l)
  +. Float.max 0. (Polyfit.eval2 f.wire_delay_fit s l)

let eval_branch t ~drive ~load_cap_left ~load_cap_right ~input_slew ~len_left
    ~len_right =
  Obs.incr Obs.Delay_evals_branch;
  let cl = branch_class_index t load_cap_left in
  let cr = branch_class_index t load_cap_right in
  let s = clamp t.slew_lo t.slew_hi input_slew in
  let ll = clamp t.blen_lo t.blen_hi len_left in
  let lr = clamp t.blen_lo t.blen_hi len_right in
  (* Fits are stored for cl <= cr; mirror otherwise. *)
  let key, ll, lr, mirrored =
    if cl <= cr then ((drive.Buffer_lib.name, cl, cr), ll, lr, false)
    else ((drive.Buffer_lib.name, cr, cl), lr, ll, true)
  in
  let f =
    match Hashtbl.find_opt t.branches key with
    | Some f -> f
    | None -> invalid_arg ("Delaylib: unknown branch config " ^ drive.name)
  in
  let dl = Float.max 0. (Polyfit.eval3 f.delay_left_fit s ll lr) in
  let dr = Float.max 0. (Polyfit.eval3 f.delay_right_fit s ll lr) in
  let sl = Float.max 1e-13 (Polyfit.eval3 f.slew_left_fit s ll lr) in
  let sr = Float.max 1e-13 (Polyfit.eval3 f.slew_right_fit s ll lr) in
  if mirrored then
    { delay_left = dr; delay_right = dl; slew_left = sr; slew_right = sl }
  else { delay_left = dl; delay_right = dr; slew_left = sl; slew_right = sr }

let max_length_for_slew t ~drive ~load_cap ~input_slew ~slew_limit =
  let slew_at l = (eval_single t ~drive ~load_cap ~input_slew ~length:l).wire_slew in
  if slew_at t.len_hi <= slew_limit then t.len_hi
  else if slew_at t.len_lo >= slew_limit then t.len_lo
  else
    Numerics.Roots.bisect ~tol:1. (fun l -> slew_at l -. slew_limit) t.len_lo
      t.len_hi

let n_classes t = Array.length t.classes
let classes t = Array.copy t.classes
let buffers t = t.buffers
let first_buffer t = t.first_buffer
let tech t = t.tech
let len_domain t = (t.len_lo, t.len_hi)
let slew_domain t = (t.slew_lo, t.slew_hi)
let fit_report t = t.residuals

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)

let to_text t =
  let b = Buffer.create 65536 in
  let pf fmt = Printf.bprintf b fmt in
  (* v2: fits characterized under the BDF2 engine (DESIGN.md 5y). *)
  pf "delaylib v2\n";
  pf "tech %.17g %.17g %.17g %.17g %.17g %.17g %.17g %.17g %.17g\n"
    t.tech.Tech.vdd t.tech.Tech.vt t.tech.Tech.alpha t.tech.Tech.vdsat_frac
    t.tech.Tech.k_per_x t.tech.Tech.gate_cap_per_x t.tech.Tech.drain_cap_per_x
    t.tech.Tech.unit_res t.tech.Tech.unit_cap;
  pf "buffers %d\n" (List.length t.buffers);
  List.iter
    (fun (b : Buffer_lib.t) -> pf "buffer %s %.17g\n" b.name b.size)
    t.buffers;
  pf "classes %s\n"
    (String.concat " "
       (Array.to_list (Array.map (Printf.sprintf "%.17g") t.classes)));
  pf "branch_classes %s\n"
    (String.concat " "
       (Array.to_list (Array.map string_of_int t.branch_classes)));
  pf "domains %.17g %.17g %.17g %.17g %.17g %.17g\n" t.slew_lo t.slew_hi
    t.len_lo t.len_hi t.blen_lo t.blen_hi;
  let n_cls = Array.length t.classes in
  Array.iteri
    (fun idx f ->
      pf "single %s %d\n" t.names.(idx / n_cls) (idx mod n_cls);
      pf "S %s\n" (Polyfit.surface2_to_string f.buf_delay_fit);
      pf "S %s\n" (Polyfit.surface2_to_string f.wire_delay_fit);
      pf "S %s\n" (Polyfit.surface2_to_string f.wire_slew_fit))
    t.singles;
  Hashtbl.iter
    (fun (name, cl, cr) f ->
      pf "branch %s %d %d\n" name cl cr;
      pf "T %s\n" (Polyfit.surface3_to_string f.delay_left_fit);
      pf "T %s\n" (Polyfit.surface3_to_string f.delay_right_fit);
      pf "T %s\n" (Polyfit.surface3_to_string f.slew_left_fit);
      pf "T %s\n" (Polyfit.surface3_to_string f.slew_right_fit))
    t.branches;
  List.iter
    (fun (label, rms, worst) -> pf "residual %s %.17g %.17g\n" label rms worst)
    t.residuals;
  pf "end\n";
  Buffer.contents b
