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

let cache_file ?path profile =
  let path =
    match path with
    | Some p -> p
    | None ->
        Filename.concat ".cache" ("delaylib_" ^ profile_name profile ^ ".txt")
  in
  let dir = Filename.dirname path in
  (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
   with Sys_error _ -> ());
  path

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
          a fit (checked when the library is built). *)
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

(* Gate class (a typical buffer input cap) plus three sink classes. *)
let default_classes = [| 0.75e-15; 5e-15; 15e-15; 35e-15 |]
let default_branch_classes = [| 0; 2; 3 |]

(* The measurements below read only first crossings at 10, 50 and 90%
   Vdd, so a run may end once every recorded node has reached 90%: the
   upper level of [Waveform.slew_10_90], the highest one read. *)
let char_sim_config = { Wave_gen.char_config with T.stop_at = Some 0.9 }

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
  T.simulate_lanes ~config:char_sim_config ~stage1 tech (T.Driven_buffer (drive, input)) stages

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
  let delay_from_out tag =
    match W.delay_50 out (T.waveform res tag) ~vdd with
    | Some d -> d
    | None -> invalid_arg "Delaylib: branch load did not rise"
  in
  let slew_at tag =
    match T.node_slew res ~tag with
    | Some s -> s
    | None -> invalid_arg "Delaylib: branch slew unavailable"
  in
  ( delay_from_out "left",
    delay_from_out "right",
    slew_at "left",
    slew_at "right" )

(* ------------------------------------------------------------------ *)
(* Fitting                                                             *)

let residual_stats label fit_eval pts expected =
  let predicted = Array.map fit_eval pts in
  let rms = Util.Stats.rms_error predicted expected in
  let worst = Util.Stats.max_abs_error predicted expected in
  (label, rms, worst)

(* ------------------------------------------------------------------ *)
(* Library assembly                                                    *)

(* Relative half-width of the undecided window around each class
   boundary (see [class_index]). *)
let window = 1e-9

(* Adjacent classes must differ by more than this factor: far above the
   window and the log rounding error, so the boundary search and the
   log loop agree away from the windows. *)
let min_class_ratio = 1. +. 1e-6

(* Slot of a cell name in [names]; -1 when absent. *)
let rec scan_name names n i name =
  if i >= n then -1
  else if String.equal (Array.unsafe_get names i) name then i
  else scan_name names n (i + 1) name

(* Rejects a library, characterized or loaded, naming the problem. *)
let fail fmt = Printf.ksprintf (fun m -> failwith ("Delaylib: " ^ m)) fmt

(* Every library, characterized or loaded, is built here: the checks
   make the flat tables total, so a single-wire lookup for one of the
   library's own buffers cannot fail mid-synthesis. [singles] maps
   (cell name, class) to its fit; a later duplicate replaces an earlier
   one. *)
let assemble ~tech ~buffers ~classes ~branch_classes
    ~domains:(slew_lo, slew_hi, len_lo, len_hi, blen_lo, blen_hi) ~singles
    ~branches ~residuals =
  let first_buffer =
    match buffers with b :: _ -> b | [] -> fail "the library has no buffers"
  in
  let names =
    Array.of_list (List.map (fun (b : Buffer_lib.t) -> b.Buffer_lib.name) buffers)
  in
  Array.iteri
    (fun i n -> if scan_name names i 0 n >= 0 then fail "duplicate buffer %s" n)
    names;
  let n_cls = Array.length classes in
  if n_cls = 0 then fail "the library has no load classes";
  Array.iteri
    (fun k c ->
      if not (Float.is_finite c && c > 0.) then
        fail "load class %d (%g F) is not a positive finite capacitance" k c;
      if k > 0 && not (c > classes.(k - 1) *. min_class_ratio) then
        fail "load classes are not strictly ascending at class %d (%g F)" k c)
    classes;
  let table = Array.make (Array.length names * n_cls) None in
  List.iter
    (fun ((name, ci), f) ->
      let slot = scan_name names (Array.length names) 0 name in
      if slot < 0 then fail "single fit for unknown buffer %s" name;
      if ci < 0 || ci >= n_cls then fail "single fit for unknown class %d" ci;
      table.((slot * n_cls) + ci) <- Some f)
    singles;
  let singles =
    Array.mapi
      (fun idx -> function
        | Some f -> f
        | None ->
            fail "no single fit for buffer %s, class %d" names.(idx / n_cls)
              (idx mod n_cls))
      table
  in
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
    slew_lo;
    slew_hi;
    len_lo;
    len_hi;
    blen_lo;
    blen_hi;
    singles;
    branches;
    residuals;
  }

let characterize ?(profile = Accurate) ?pool tech buffers =
  if buffers = [] then invalid_arg "Delaylib.characterize: no buffers";
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
  (* Input waveforms shaped by a real input buffer, one per slew value.
     Computed up front on the calling domain; the jobs below only read
     them. *)
  let binput = Buffer_lib.smallest buffers in
  let all_slews = List.sort_uniq Float.compare (slews @ bslews) in
  Log.debug (fun m -> m "input waves for %d slews" (List.length all_slews));
  let waves =
    List.combine all_slews
      (Wave_gen.buffer_output_waves tech binput ~slews:all_slews)
  in
  let wave_for s = List.assoc s waves in
  (* Pool tasks, one per (buffer, slew), runnable on any domain: every
     length (pair) of the sweep, each simulated once with the load
     classes (class pairs) as its lanes. Per length, the samples come
     back in class (pair) order. *)
  let single_samples (drive : Buffer_lib.t) slew () =
    let input = wave_for slew and stage1 = T.stage1 () in
    List.map
      (fun length ->
        let res =
          simulate_lanes tech ~stage1 drive input (Array.map (single_stage tech ~length) classes)
        in
        (length, Array.map (measure_single tech input) res))
      lens
  in
  let branch_samples (drive : Buffer_lib.t) slew () =
    let input = wave_for slew and stage1 = T.stage1 () in
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
  let per_slew task sweep =
    Array.of_list (List.concat_map (fun d -> List.map (task d) sweep) buffers)
  in
  let run jobs = Parallel.map pool (fun job -> job ()) jobs in
  let singles_at = run (per_slew single_samples slews) in
  let branches_at = run (per_slew branch_samples bslews) in
  (* The fits, buffer by buffer: per class, then per class pair, each
     over its samples in slew-major order. That order fixes the fit
     bits, the residual list and the save file. *)
  let fit_single bi (drive : Buffer_lib.t) ci =
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
            | None ->
                Log.warn (fun m ->
                    m "dropping sample %s/%d L=%g: a crossing is missing"
                      drive.name ci length))
          singles_at.((bi * List.length slews) + si))
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
    let lbl kind = Printf.sprintf "%s/c%d/%s" drive.name ci kind in
    (* Newest first: the join prepends each chunk and reverses the
       whole list at the end. *)
    let chunk =
      [
        residual_stats (lbl "buf_delay")
          (fun (s, l) -> Polyfit.eval2 f.buf_delay_fit s l)
          pts bd;
        residual_stats (lbl "wire_delay")
          (fun (s, l) -> Polyfit.eval2 f.wire_delay_fit s l)
          pts wd;
        residual_stats (lbl "wire_slew")
          (fun (s, l) -> Polyfit.eval2 f.wire_slew_fit s l)
          pts ws;
      ]
    in
    ((drive.Buffer_lib.name, ci), f, chunk)
  in
  let fit_branch bi (drive : Buffer_lib.t) pi =
    let pts = ref []
    and dl = ref []
    and dr = ref []
    and sl = ref []
    and sr = ref [] in
    List.iteri
      (fun si slew ->
        List.iter
          (fun ((len_left, len_right), samples) ->
            let a, b, c, d = samples.(pi) in
            pts := (slew, len_left, len_right) :: !pts;
            dl := a :: !dl;
            dr := b :: !dr;
            sl := c :: !sl;
            sr := d :: !sr)
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
    let lbl kind = Printf.sprintf "%s/b%d-%d/%s" drive.name cl cr kind in
    let chunk =
      [
        residual_stats (lbl "delay_left")
          (fun (s, a, b) -> Polyfit.eval3 f.delay_left_fit s a b)
          pts (arr dl);
        residual_stats (lbl "slew_left")
          (fun (s, a, b) -> Polyfit.eval3 f.slew_left_fit s a b)
          pts (arr sl);
      ]
    in
    ((drive.Buffer_lib.name, cl, cr), f, chunk)
  in
  let singles = ref [] in
  let branches = Hashtbl.create 16 in
  let residuals = ref [] in
  List.iteri
    (fun bi drive ->
      Array.iteri
        (fun ci _ ->
          let key, f, chunk = fit_single bi drive ci in
          singles := (key, f) :: !singles;
          residuals := chunk @ !residuals)
        classes;
      Array.iteri
        (fun pi _ ->
          let key, f, chunk = fit_branch bi drive pi in
          Hashtbl.replace branches key f;
          residuals := chunk @ !residuals)
        pairs)
    buffers;
  (* The sweep lists are non-empty literals sorted ascending; fold for
     the bounds rather than trusting the ordering with a partial
     List.hd. *)
  let lo = List.fold_left Float.min Float.infinity
  and hi = List.fold_left Float.max 0. in
  assemble ~tech ~buffers ~classes ~branch_classes
    ~domains:(lo slews, hi slews, lo lens, hi lens, lo blens, hi blens)
    ~singles:(List.rev !singles) ~branches ~residuals:(List.rev !residuals)

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
   1e-6 relative ([assemble]), so the nearest class in log space is
   decided by the geometric-mean boundaries sqrt (c_k c_k+1). Outside
   the 1e-9 windows around them the true log distances of the two
   nearest classes differ by more than 2e-9, while over the fast range
   each computed distance is within ~1e-13 of the true one: the loop's
   comparisons cannot flip, so both rules pick the same class. Inside a
   window, at caps <= 0, non-finite caps and caps so extreme that a
   quotient could leave the normal range, the loop itself decides. *)
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

(* The first line of a library file. v2 libraries are characterized
   under the BDF2 engine; a v1 file holds backward-Euler fits, so [load]
   rejects it and [load_or_characterize] replaces it. *)
let format_header = "delaylib v2"

(* Through a temporary file in the same directory and a rename, so a
   reader, or a concurrent save, never sees a partly written file. *)
let save t path =
  let tmp, oc =
    Filename.open_temp_file ~perms:0o666 ~temp_dir:(Filename.dirname path)
      (Filename.basename path) ".tmp"
  in
  let pf fmt = Printf.fprintf oc fmt in
  (try
     pf "%s\n" format_header;
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
     close_out oc;
     Sys.rename tmp path
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e)

let load path =
  let ic = open_in path in
  (* Parse failures raise Failure / Invalid_argument; ~finally keeps
     the channel closed on every unwind path. *)
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let next () = try Some (input_line ic) with End_of_file -> None in
      let expect_prefix prefix line =
        if not (String.length line >= String.length prefix
                && String.sub line 0 (String.length prefix) = prefix)
        then fail "expected %S, got %S" prefix line
      in
      let surface_line kind =
        match next () with
        | Some line ->
            expect_prefix (kind ^ " ") line;
            String.sub line 2 (String.length line - 2)
        | None -> fail "unexpected EOF in surface"
      in
      (match next () with
      | Some h when String.equal h format_header -> ()
      | Some h -> fail "bad header %S, must be %S" h format_header
      | None -> fail "empty file");
      let tech =
        match next () with
        | Some line -> (
            match String.split_on_char ' ' line with
            | "tech" :: rest -> (
                match List.map float_of_string rest with
                | [ vdd; vt; alpha; vdsat_frac; k; gc; dc; ur; uc ] ->
                    {
                      Tech.vdd;
                      vt;
                      alpha;
                      vdsat_frac;
                      k_per_x = k;
                      gate_cap_per_x = gc;
                      drain_cap_per_x = dc;
                      unit_res = ur;
                      unit_cap = uc;
                    }
                | _ -> fail "tech arity")
            | _ -> fail "expected tech")
        | None -> fail "EOF"
      in
      let n_buffers =
        match next () with
        | Some line -> (
            match String.split_on_char ' ' line with
            | [ "buffers"; n ] -> int_of_string n
            | _ -> fail "expected buffers")
        | None -> fail "EOF"
      in
      let buffers =
        List.init n_buffers (fun _ ->
            match next () with
            | Some line -> (
                match String.split_on_char ' ' line with
                | [ "buffer"; name; size ] ->
                    Buffer_lib.make ~name ~size:(float_of_string size)
                | _ -> fail "expected buffer")
            | None -> fail "EOF")
      in
      let classes =
        match next () with
        | Some line -> (
            match String.split_on_char ' ' line with
            | "classes" :: rest ->
                Array.of_list (List.map float_of_string rest)
            | _ -> fail "expected classes")
        | None -> fail "EOF"
      in
      let branch_classes =
        match next () with
        | Some line -> (
            match String.split_on_char ' ' line with
            | "branch_classes" :: rest ->
                Array.of_list (List.map int_of_string rest)
            | _ -> fail "expected branch_classes")
        | None -> fail "EOF"
      in
      let slew_lo, slew_hi, len_lo, len_hi, blen_lo, blen_hi =
        match next () with
        | Some line -> (
            match String.split_on_char ' ' line with
            | [ "domains"; a; b; c; d; e; f ] ->
                ( float_of_string a,
                  float_of_string b,
                  float_of_string c,
                  float_of_string d,
                  float_of_string e,
                  float_of_string f )
            | _ -> fail "expected domains")
        | None -> fail "EOF"
      in
      let singles = ref [] in
      let branches = Hashtbl.create 16 in
      let residuals = ref [] in
      let rec loop () =
        match next () with
        | None -> fail "missing end marker"
        | Some "end" -> ()
        | Some line ->
            (match String.split_on_char ' ' line with
            | [ "single"; name; ci ] ->
                (* Field evaluation order in record literals is unspecified;
                   read the lines in explicit sequence. *)
                let buf_delay_fit = Polyfit.surface2_of_string (surface_line "S") in
                let wire_delay_fit = Polyfit.surface2_of_string (surface_line "S") in
                let wire_slew_fit = Polyfit.surface2_of_string (surface_line "S") in
                singles :=
                  ((name, int_of_string ci),
                   { buf_delay_fit; wire_delay_fit; wire_slew_fit })
                  :: !singles
            | [ "branch"; name; cl; cr ] ->
                let delay_left_fit = Polyfit.surface3_of_string (surface_line "T") in
                let delay_right_fit = Polyfit.surface3_of_string (surface_line "T") in
                let slew_left_fit = Polyfit.surface3_of_string (surface_line "T") in
                let slew_right_fit = Polyfit.surface3_of_string (surface_line "T") in
                Hashtbl.replace branches
                  (name, int_of_string cl, int_of_string cr)
                  { delay_left_fit; delay_right_fit; slew_left_fit; slew_right_fit }
            | "residual" :: label :: rms :: worst :: [] ->
                residuals :=
                  (label, float_of_string rms, float_of_string worst) :: !residuals
            | _ -> fail "unrecognized line: %s" line);
            loop ()
      in
      loop ();
      assemble ~tech ~buffers ~classes ~branch_classes
        ~domains:(slew_lo, slew_hi, len_lo, len_hi, blen_lo, blen_hi)
        ~singles:(List.rev !singles) ~branches
        ~residuals:(List.rev !residuals))

let load_or_characterize ?(profile = Accurate) ?pool ~cache tech buffers =
  (* A missing, corrupt or stale cache is recoverable: re-characterize
     and overwrite. Only the parse/IO exceptions load can actually raise
     are absorbed; a failed save costs only the cache. *)
  match load cache with
  | t -> t
  | exception (Sys_error _ | Failure _ | Invalid_argument _) ->
      let t = characterize ~profile ?pool tech buffers in
      (try save t cache with Sys_error _ -> ());
      t
