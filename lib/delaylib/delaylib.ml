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

type grid = { slews : float list; lengths : float list }

type sweep = {
  single_degree : int;
  single : grid;
  branch_degree : int;
  branch : grid;
}

type quantity = Buffer_delay | Wire_delay | Wire_slew | Branch_delay | Branch_slew

let quantities = [ Buffer_delay; Wire_delay; Wire_slew; Branch_delay; Branch_slew ]

let quantity_name = function
  | Buffer_delay -> "buffer delay"
  | Wire_delay -> "wire delay"
  | Wire_slew -> "wire slew"
  | Branch_delay -> "branch delay"
  | Branch_slew -> "branch slew"

type cost = { runs : int; lanes : int; samples : int }

let no_cost = { runs = 0; lanes = 0; samples = 0 }
let add_cost a b = { runs = a.runs + b.runs; lanes = a.lanes + b.lanes; samples = a.samples + b.samples }

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
  profile : profile;
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
  pairs : (int * int) array;  (** Branch class pairs [(cl, cr)], [cl <= cr]. *)
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
  residuals : (quantity * (string * float * float)) list;
  cost : cost;  (** The sweep's lane runs, lanes and lane-samples. *)
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

let ps = List.map (fun x -> x *. 1e-12)

(* Every sweep needs at least (degree + 1) distinct values per
   dimension, otherwise high-order basis columns collapse onto lower
   ones and mid-grid evaluation loses coefficient mass. The accurate
   sweep is the cheapest design found whose held-out worst error stays
   within 0.5 ps for every quantity (DESIGN.md 5ab); its domain
   endpoints are the denser sweep's it replaced. *)
let sweep = function
  | Fast ->
      {
        single_degree = 2;
        single = { slews = ps [ 30.; 80.; 150. ]; lengths = [ 25.; 200.; 500.; 900.; 1400. ] };
        branch_degree = 2;
        branch = { slews = ps [ 40.; 80.; 120. ]; lengths = [ 50.; 300.; 700.; 1100. ] };
      }
  | Accurate ->
      {
        single_degree = 4;
        single =
          {
            slews = ps [ 20.; 50.; 100.; 170.; 250. ];
            lengths = [ 10.; 50.; 150.; 400.; 800.; 1300.; 1800. ];
          };
        branch_degree = 3;
        branch = { slews = ps [ 30.; 70.; 120.; 180. ]; lengths = [ 25.; 250.; 650.; 1050. ] };
      }

(* Off every sweep value of both profiles' designs (and of the denser
   accurate sweep the design replaced), inside each profile's domain. *)
let held_out_set = function
  | Fast ->
      ( { slews = ps [ 35.; 55.; 85.; 120. ]; lengths = [ 35.; 120.; 230.; 420.; 640.; 1000.; 1225. ] },
        { slews = ps [ 50.; 95.; 110. ]; lengths = [ 90.; 230.; 550.; 900. ] } )
  | Accurate ->
      ( {
          slews = ps [ 25.; 60.; 85.; 120.; 145.; 200.; 220. ];
          lengths = [ 35.; 120.; 230.; 420.; 640.; 900.; 1225.; 1600. ];
        },
        { slews = ps [ 50.; 95.; 150. ]; lengths = [ 90.; 230.; 550.; 900. ] } )

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
   stage 1's trajectory through [stage1]. Returns the lanes' results
   and the run's cost: one run, its lanes and the samples they
   recorded. *)
let simulate_lanes tech ~stage1 drive input stages =
  let res =
    T.simulate_lanes ~config:Wave_gen.char_config ~stage1 tech (T.Driven_buffer (drive, input)) stages
  in
  let samples = Array.fold_left (fun n r -> n + W.n_samples (T.root_waveform r)) 0 res in
  (res, { runs = 1; lanes = Array.length res; samples })

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

(* One (buffer, input wave) task over single wires: every length,
   simulated once with the load classes as its lanes. Per length, the
   samples come back in class order. *)
let single_samples tech classes (drive : Buffer_lib.t) input lengths () =
  let stage1 = T.stage1 () in
  List.fold_left_map
    (fun cost length ->
      let res, c =
        simulate_lanes tech ~stage1 drive input (Array.map (single_stage tech ~length) classes)
      in
      (add_cost cost c, (length, Array.map (measure_single tech input) res)))
    no_cost lengths

(* The mirror of a branch sample: left and right swapped. *)
let swap = Option.map (fun (dl, dr, sl, sr) -> (dr, dl, sr, sl))

(* One (buffer, input wave) task over branches: every ordered length
   pair, with the class pairs as its lanes, in left-major order. An
   equal-class pair at (L1, L2), left after right in [lengths], is the
   (L2, L1) run's with its sides swapped: the two stages are mirror
   images, so that run simulates only the unequal-class lanes. The
   mirror stays inside this task, so the samples are the same at any
   pool size. *)
let branch_samples tech classes pairs (drive : Buffer_lib.t) input lengths () =
  let stage1 = T.stage1 () in
  let lens = Array.of_list lengths in
  let n = Array.length lens in
  let all = Array.init (Array.length pairs) Fun.id in
  let unequal = Array.of_list (List.filter (fun k -> fst pairs.(k) <> snd pairs.(k)) (Array.to_list all)) in
  let table = Array.make_matrix n n [||] in
  let cost = ref no_cost in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let len_left = lens.(i) and len_right = lens.(j) in
      let stage k =
        let cl, cr = pairs.(k) in
        branch_stage tech ~len_left ~len_right (classes.(cl), classes.(cr))
      in
      let lanes = if i > j then unequal else all in
      let res, c = simulate_lanes tech ~stage1 drive input (Array.map stage lanes) in
      cost := add_cost !cost c;
      let measured = Array.make (Array.length pairs) None in
      Array.iteri (fun l k -> measured.(k) <- measure_branch tech res.(l)) lanes;
      if i > j then
        Array.iteri
          (fun k (cl, cr) -> if cl = cr then measured.(k) <- swap table.(j).(i).(k))
          pairs;
      table.(i).(j) <- measured
    done
  done;
  ( !cost,
    List.concat
      (List.init n (fun i -> List.init n (fun j -> ((lens.(i), lens.(j)), table.(i).(j))))) )

let branch_pairs branch_classes =
  Array.of_list
    (List.concat_map
       (fun cl ->
         List.filter_map
           (fun cr -> if cl <= cr then Some (cl, cr) else None)
           (Array.to_list branch_classes))
       (Array.to_list branch_classes))

(* What the tasks of one (single-wire grid, branch grid) pair produced:
   per grid, the measured slew of each input wave, and per (buffer,
   wave), buffer-major, the samples of its task. *)
type runs = {
  single_slews : float list;
  singles : (float * (float * float * float) option array) list array;
  branch_slews : float list;
  branches : ((float * float) * (float * float * float * float) option array) list array;
  run_cost : cost;
}

(* Both grids through the sweep's tasks on [pool]. The input waves, one
   per slew (the single-wire grid's, then the branch grid's), are shaped
   by the smallest buffer and computed up front on the calling domain;
   [Wave_gen] simulates a slew both grids share once. Each wave's
   coordinate is its measured 10%-90% slew, since [Wave_gen] lands only
   within 2 ps of the nominal one. *)
let run_grids pool tech buffers classes pairs single branch =
  let binput = Buffer_lib.smallest buffers in
  let waves =
    List.map
      (fun w ->
        match W.slew_10_90 w ~vdd:tech.Tech.vdd with
        | Some s -> (w, s)
        | None -> invalid_arg "Delaylib: an input wave did not rise")
      (Wave_gen.buffer_output_waves tech binput ~slews:(single.slews @ branch.slews))
  in
  let n = List.length single.slews in
  let single_waves = List.filteri (fun i _ -> i < n) waves
  and branch_waves = List.filteri (fun i _ -> i >= n) waves in
  let per_wave task waves lens =
    Array.of_list
      (List.concat_map (fun d -> List.map (fun (w, _) -> task d w lens) waves) buffers)
  in
  let run jobs = Parallel.map pool (fun job -> job ()) jobs in
  let singles = run (per_wave (single_samples tech classes) single_waves single.lengths) in
  let branches = run (per_wave (branch_samples tech classes pairs) branch_waves branch.lengths) in
  let total tasks = Array.fold_left (fun acc (c, _) -> add_cost acc c) no_cost tasks in
  {
    single_slews = List.map snd single_waves;
    singles = Array.map snd singles;
    branch_slews = List.map snd branch_waves;
    branches = Array.map snd branches;
    run_cost = add_cost (total singles) (total branches);
  }

(* ------------------------------------------------------------------ *)
(* Fitting                                                             *)

let residual_stats quantity label fit_eval pts expected =
  let predicted = Array.map fit_eval pts in
  let rms = Util.Stats.rms_error predicted expected in
  let worst = Util.Stats.max_abs_error predicted expected in
  (quantity, (label, rms, worst))

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
  let sw = sweep profile in
  let classes = default_classes in
  let branch_classes = default_branch_classes in
  let pairs = branch_pairs branch_classes in
  let n_buf = Array.length names
  and n_cls = Array.length classes
  and n_pairs = Array.length pairs in
  let runs = run_grids pool tech buffers classes pairs sw.single sw.branch in
  let n_slews = List.length runs.single_slews and n_bslews = List.length runs.branch_slews in
  (* The fits: per (buffer, class), then per (buffer, class pair), each
     over its samples in slew-major order at the waves' measured slews,
     and each with its residuals in the order the library text lists
     them. That order fixes the fit bits, the residual list and the
     text. A sample whose run misses a crossing is left out. *)
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
          runs.singles.((bi * n_slews) + si))
      runs.single_slews;
    let pts = Array.of_list (List.rev !pts) in
    let bd = Array.of_list (List.rev !bd) in
    let wd = Array.of_list (List.rev !wd) in
    let ws = Array.of_list (List.rev !ws) in
    let fit = Polyfit.fit2 ~degree:sw.single_degree in
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
        residual_stats Wire_slew (lbl "wire_slew")
          (fun (s, l) -> Polyfit.eval2 f.wire_slew_fit s l)
          pts ws;
        residual_stats Wire_delay (lbl "wire_delay")
          (fun (s, l) -> Polyfit.eval2 f.wire_delay_fit s l)
          pts wd;
        residual_stats Buffer_delay (lbl "buf_delay")
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
          runs.branches.((bi * n_bslews) + si))
      runs.branch_slews;
    let pts = Array.of_list (List.rev !pts) in
    let arr r = Array.of_list (List.rev !r) in
    let fit = Polyfit.fit3 ~degree:sw.branch_degree in
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
        residual_stats Branch_slew (lbl "slew_left")
          (fun (s, a, b) -> Polyfit.eval3 f.slew_left_fit s a b)
          pts (arr sl);
        residual_stats Branch_delay (lbl "delay_left")
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
  (* The domains are the sweeps' extremes: the measured slews', and the
     lengths'. Folded, rather than trusting the sweeps' order with a
     partial List.hd. *)
  let lo = List.fold_left Float.min Float.infinity
  and hi = List.fold_left Float.max 0. in
  let bound k = sqrt (classes.(k) *. classes.(k + 1)) in
  {
    tech;
    profile;
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
    pairs;
    slew_lo = lo runs.single_slews;
    slew_hi = hi runs.single_slews;
    len_lo = lo sw.single.lengths;
    len_hi = hi sw.single.lengths;
    blen_lo = lo sw.branch.lengths;
    blen_hi = hi sw.branch.lengths;
    singles = Array.map fst singles;
    branches;
    residuals;
    cost = runs.run_cost;
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
let fit_report t = List.map snd t.residuals
let sweep_cost t = t.cost

(* ------------------------------------------------------------------ *)
(* Held-out error                                                      *)

type accuracy = {
  quantity : quantity;
  in_sample : float;
  worst : float;
  rms : float;
  samples : int;
}

type report = { profile : profile; accuracy : accuracy list; cost : cost }

(* The held-out points run through the sweep's own tasks and measure
   functions, at their waves' measured slews, and each sample is
   compared with the lookup a synthesis makes there. *)
let held_out ?set (t : t) =
  let single, branch = match set with Some s -> s | None -> held_out_set t.profile in
  let runs =
    run_grids (Parallel.default_pool ()) t.tech t.buffers t.classes t.pairs single branch
  in
  (* (quantity, predicted, simulated) per compared sample. *)
  let compared = ref [] in
  let add q predicted simulated = compared := (q, predicted, simulated) :: !compared in
  let per_wave slews = List.concat_map (fun d -> List.map (fun s -> (d, s)) slews) t.buffers in
  List.iteri
    (fun idx (drive, input_slew) ->
      List.iter
        (fun (length, samples) ->
          Array.iteri
            (fun ci sample ->
              Option.iter
                (fun (b, w, s) ->
                  let e = eval_single t ~drive ~load_cap:t.classes.(ci) ~input_slew ~length in
                  add Buffer_delay e.buf_delay b;
                  add Wire_delay e.wire_delay w;
                  add Wire_slew e.wire_slew s)
                sample)
            samples)
        runs.singles.(idx))
    (per_wave runs.single_slews);
  List.iteri
    (fun idx (drive, input_slew) ->
      List.iter
        (fun ((len_left, len_right), samples) ->
          Array.iteri
            (fun k sample ->
              Option.iter
                (fun (dl, dr, sl, sr) ->
                  let cl, cr = t.pairs.(k) in
                  let e =
                    eval_branch t ~drive ~load_cap_left:t.classes.(cl)
                      ~load_cap_right:t.classes.(cr) ~input_slew ~len_left ~len_right
                  in
                  add Branch_delay e.delay_left dl;
                  add Branch_delay e.delay_right dr;
                  add Branch_slew e.slew_left sl;
                  add Branch_slew e.slew_right sr)
                sample)
            samples)
        runs.branches.(idx))
    (per_wave runs.branch_slews);
  let accuracy =
    List.map
      (fun quantity ->
        let mine = List.filter (fun (q, _, _) -> q = quantity) !compared in
        let predicted = Array.of_list (List.map (fun (_, p, _) -> p) mine)
        and simulated = Array.of_list (List.map (fun (_, _, x) -> x) mine) in
        let in_sample =
          List.fold_left
            (fun m (q, (_, _, worst)) -> if q = quantity then Float.max m worst else m)
            0. t.residuals
        in
        {
          quantity;
          in_sample;
          worst = Util.Stats.max_abs_error predicted simulated;
          rms = Util.Stats.rms_error predicted simulated;
          samples = Array.length predicted;
        })
      quantities
  in
  { profile = t.profile; accuracy; cost = t.cost }

let render_report r =
  let b = Buffer.create 512 in
  Printf.bprintf b
    "error at the %s profile's held-out points (off its sweep, simulated by the same lane \
     runs), beside the fits' in-sample residual:\n"
    (profile_name r.profile);
  Printf.bprintf b "%-13s %15s %13s %16s %8s\n" "quantity" "held-out worst" "held-out rms"
    "in-sample worst" "samples";
  List.iter
    (fun a ->
      Printf.bprintf b "%-13s %12.3f ps %10.3f ps %13.3f ps %8d\n" (quantity_name a.quantity)
        (a.worst *. 1e12) (a.rms *. 1e12) (a.in_sample *. 1e12) a.samples)
    r.accuracy;
  Printf.bprintf b "sweep: %d lane runs, %d lanes, %d lane-samples\n" r.cost.runs r.cost.lanes
    r.cost.samples;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)

let to_text (t : t) =
  let b = Buffer.create 65536 in
  let pf fmt = Printf.bprintf b fmt in
  (* v3: fits at the input waves' measured slews, and the sweep's cost
     (DESIGN.md 5ab). *)
  pf "delaylib v3 %s\n" (profile_name t.profile);
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
  pf "sweep %d %d %d\n" t.cost.runs t.cost.lanes t.cost.samples;
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
    (fun (_, (label, rms, worst)) -> pf "residual %s %.17g %.17g\n" label rms worst)
    t.residuals;
  pf "end\n";
  Buffer.contents b
