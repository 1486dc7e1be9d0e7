module W = Waveform
module Tech = Circuit.Tech
module Buffer_lib = Circuit.Buffer_lib
module Device = Circuit.Device

type driver = Driven_buffer of Circuit.Buffer_lib.t * W.t

type config = {
  dt : float; t_margin : float; t_max : float; newton_iters : int;
  stop_at : float option;
}

let default_config =
  { dt = 0.5e-12; t_margin = 1.5e-9; t_max = 40e-9; newton_iters = 3;
    stop_at = None }

type result = {
  vdd : float;
  recorded : (string * W.t) list;
  root : W.t;
  settled_flag : bool;
}

(* The sample times of a run, and its series: series [j] of lane [l] is
   [rows.((l * ns) + j)] for a run recording [ns] series per lane. A
   run's live rows are as long as [times]; the slots past what the run
   has recorded hold whatever an earlier run left there, and a run
   reads back only slots it wrote itself. *)
type buffer = { mutable times : float array; mutable rows : float array array }

let buffer () = { times = Array.create_float 1024; rows = [||] }

(* [a] at length [len], its first [keep] samples copied. *)
let regrow a ~len ~keep =
  let b = Array.create_float len in
  Array.blit a 0 b 0 keep;
  b

let validate c =
  let check field ok value need =
    if not ok then
      invalid_arg
        (Printf.sprintf "Transient.simulate: config.%s = %s, must be %s" field
           value need)
  in
  let g x = Printf.sprintf "%g" x and finite = Float.is_finite in
  check "dt" (finite c.dt && c.dt > 0.) (g c.dt) "finite and > 0";
  check "t_max" (finite c.t_max && c.t_max > 0.) (g c.t_max) "finite and > 0";
  check "t_margin" (finite c.t_margin && c.t_margin >= 0.) (g c.t_margin)
    "finite and >= 0";
  check "newton_iters" (c.newton_iters >= 1) (string_of_int c.newton_iters)
    ">= 1";
  Option.iter
    (fun l -> check "stop_at" (l > 0. && l <= 1.) (g l) "in (0, 1]")
    c.stop_at

let[@inline] same_bits a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Scalar backward-Euler Newton step for the buffer's internal node
   [d.vout] at input [d.vin], in place; inlined, so [c_dt] is not boxed.
   An update is a function of the iterate alone: once one returns its
   input bit for bit, the remaining ones would too. *)
let[@inline] advance_internal (tech : Tech.t) (d : Device.inverter) ~c_dt
    ~iters =
  let v_old = d.vout in
  let v = ref v_old and k = ref 0 in
  while !k < iters do
    d.vout <- !v;
    Device.eval tech d;
    let f = (c_dt *. (!v -. v_old)) -. d.current in
    let fp = c_dt +. d.conductance in
    let next = !v -. (f /. fp) in
    k := if same_bits next !v then iters else !k + 1;
    v := next
  done;
  (* Voltages stay physical. *)
  d.vout <- Float.max (-0.1 *. tech.vdd) (Float.min (1.1 *. tech.vdd) !v)

(* Whether a stage-1 step from rest (internal node at Vdd) with an
   input in [0, vt] returns Vdd bit for bit: these keep its Newton
   denominator positive and never NaN (DESIGN.md 5p). *)
let stage1_quiescent (tech : Tech.t) ~size ~c_dt =
  let k = tech.k_per_x *. size and finite = Float.is_finite in
  tech.vdd > 0. && finite (tech.vdsat_frac *. tech.vdd) && finite tech.alpha
  && finite k && k > 0. && finite c_dt && c_dt > 0.

(* The lanes' trees must share one shape: node count, parent array and
   tag positions (DESIGN.md 5t). *)
let check_shapes (flats : Rc_flat.t array) =
  let f0 = flats.(0) in
  let positions (f : Rc_flat.t) = List.map snd f.Rc_flat.tag_index in
  Array.iteri
    (fun l (f : Rc_flat.t) ->
      let differs what =
        invalid_arg
          (Printf.sprintf "Transient.simulate_lanes: lane %d's %s differs from lane 0's"
             l what)
      in
      if f.n <> f0.n then differs "node count"
      else if not (Array.for_all2 Int.equal f.parent f0.parent) then
        differs "parent array"
      else if not (List.equal Int.equal (positions f) (positions f0)) then
        differs "tag positions")
    flats

(* Removes [live.(a)] from the first [m] entries, keeping their order. *)
let drop live ~m a = Array.blit live (a + 1) live a (m - a - 1)

(* [rhs] = C/dt * v over the lanes [lanes.(0 .. m-1)]. *)
let sweep_rhs ~c_dt ~v ~rhs ~k ~n ~lanes ~m =
  for i = 0 to n - 1 do
    for a = 0 to m - 1 do
      let j = (i * k) + lanes.(a) in
      rhs.(j) <- c_dt.(j) *. v.(j)
    done
  done

(* Whether every node of lane [l] is +0. *)
let lane_at_rest v ~k ~n l =
  let zero = ref true and i = ref 0 in
  while !zero && !i < n do
    if not (same_bits v.((!i * k) + l) 0.) then zero := false;
    incr i
  done;
  !zero

(* The step loop over [flats], k >= 1 lanes of one shape. *)
let run_lanes config (tech : Tech.t) driver samples (flats : Rc_flat.t array) =
  let k = Array.length flats in
  let f0 = flats.(0) in
  let n = f0.Rc_flat.n and parent = f0.Rc_flat.parent in
  let dt = config.dt and iters = config.newton_iters in
  (* Node-major, lane-minor: node [i] of lane [l] at [(i * k) + l]. *)
  let cap = Array.make (n * k) 0. in
  for l = 0 to k - 1 do
    for i = 0 to n - 1 do
      cap.((i * k) + l) <- flats.(l).cap.(i)
    done
  done;
  (* The buffer's stage 1 drives its internal node (starting at Vdd),
     stage 2 the root, whose load gains the output diffusion
     capacitance. *)
  let (Driven_buffer (buf, input)) = driver in
  let c_out = Buffer_lib.output_cap tech buf in
  for l = 0 to k - 1 do
    cap.(l) <- cap.(l) +. c_out
  done;
  let c_dt1 = Buffer_lib.internal_cap tech buf /. dt in
  let size1 = buf.Buffer_lib.stage1_size and size2 = buf.Buffer_lib.size in
  let c_dt = Array.map (fun c -> c /. dt) cap in
  (* Static part of the diagonal: C/dt + sum of incident edge
     conductances. *)
  let diag_base = Array.copy c_dt in
  for i = 1 to n - 1 do
    let p = parent.(i) in
    for l = 0 to k - 1 do
      let g = flats.(l).g_edge.(i) in
      diag_base.((i * k) + l) <- diag_base.((i * k) + l) +. g;
      diag_base.((p * k) + l) <- diag_base.((p * k) + l) +. g
    done
  done;
  let fac = Rc_flat.factor flats ~diag:diag_base in
  let root = { Rc_flat.diag0 = 0.; rhs0 = 0.; v0 = 0. } in
  let v = Array.make (n * k) 0. and rhs = Array.make (n * k) 0. in
  let roots = Array.make k 0. in
  let vdd = tech.vdd and vt = tech.vt in
  (* Recorded series: the root and every tagged node, into [samples]. The
     times are one row for all lanes. Every row this run records starts
     at least as long as [times]; when [times] is full, it and each live
     lane's rows double, keeping what was recorded. *)
  let src = Array.of_list (0 :: List.map snd f0.Rc_flat.tag_index) in
  let ns = Array.length src in
  let nrows = k * ns and cap0 = Array.length samples.times in
  let have = Array.length samples.rows in
  if have < nrows then samples.rows <- Array.append samples.rows (Array.make (nrows - have) [||]);
  for r = 0 to nrows - 1 do
    if Array.length samples.rows.(r) < cap0 then samples.rows.(r) <- Array.create_float cap0
  done;
  let rows = samples.rows in
  let t0 = W.t_start input and t_input_end = W.t_end input in
  let t_settle = t0 +. (config.t_margin /. 10.) in
  let cursor = W.cursor input and at = { W.time = t0; value = 0. } in
  (* Stage 1 sees only the input and its own capacitance, and stage 2's
     bias only stage 1's output: one of each serves every lane. *)
  let stage1 = Device.inverter tech ~size:size1 ~vin:0. in
  let stage2 = Device.inverter tech ~size:size2 ~vin:vdd in
  stage1.vout <- vdd;
  (* At rest, per lane (DESIGN.md 5p): [rest] while every tree node is
     +0, [fixed] once a solved step showed that the tree maps rest to
     rest, [quiet] while the internal node is also still at Vdd. *)
  let quiet =
    Array.make k (stage1_quiescent tech ~size:size1 ~c_dt:c_dt1)
  in
  let rest = Array.make k true and fixed = Array.make k false in
  (* [stop_at] (DESIGN.md 5s), per lane: [reached.((l * ns) + j)] once
     series [j] has had a value >= [level], the comparison
     [Waveform.crossing] makes; [pending.(l)] counts the series that
     have not. *)
  let stop = Option.is_some config.stop_at in
  let level = vdd *. Option.value config.stop_at ~default:1. in
  let reached = Array.make (k * ns) false and pending = Array.make k ns in
  let settled = Array.make k false and len = Array.make k 1 in
  (* The live lanes, in ascending order. While some of them is still
     at rest ([resting] counts those), the lanes that solve a step, and
     of those the ones that sweep and back-substitute, are chosen per
     lane; after that every live lane does all three, and no flag can
     change. *)
  let live = Array.make k 0 and nlive = ref 0 and resting = ref 0 in
  let solving = Array.make k 0 and sweeping = Array.make k 0 in
  let backing = Array.make k 0 in
  samples.times.(0) <- t0;
  for l = 0 to k - 1 do
    for j = 0 to ns - 1 do
      let x = v.((src.(j) * k) + l) in
      rows.((l * ns) + j).(0) <- x;
      if x >= level then begin
        reached.((l * ns) + j) <- true;
        pending.(l) <- pending.(l) - 1
      end
    done;
    if not (stop && pending.(l) = 0) then begin
      live.(!nlive) <- l;
      incr nlive
    end
  done;
  resting := !nlive;
  let t = ref t0 and steps = ref 0 and swept = ref false in
  while !nlive > 0 && !t < config.t_max do
    let t_new = !t +. dt in
    at.time <- t_new;
    W.read cursor at;
    let vin = at.value in
    let solve = ref live and ms = ref !nlive in
    let sweep = ref live and mw = ref !nlive in
    let back = ref live and mb = ref 0 in
    if !resting > 0 then begin
      (* A lane at rest whose tree maps rest to rest, with the internal
         node at Vdd and the input within [0, vt], would change
         nothing; the step is skipped only when every live lane would
         skip it. At rest, [rhs] still holds the fixed step's sweep. *)
      let window = 0. <= vin && vin <= vt in
      ms := 0;
      mw := 0;
      for a = 0 to !nlive - 1 do
        let l = live.(a) in
        if not (quiet.(l) && fixed.(l) && window) then begin
          solving.(!ms) <- l;
          incr ms;
          if not (rest.(l) && fixed.(l)) then begin
            sweeping.(!mw) <- l;
            incr mw
          end
        end
      done;
      solve := solving;
      sweep := sweeping;
      back := backing
    end;
    if !ms > 0 then begin
      (* The buffer's internal node first, once for every lane: for a
         lane that would have skipped, the step returns Vdd bit for bit
         (DESIGN.md 5p), so that lane is left as it is. Then one rhs
         sweep, Newton on each lane's root unknown alone and one
         back-substitution. *)
      stage1.vin <- vin;
      advance_internal tech stage1 ~c_dt:c_dt1 ~iters;
      if !mw > 0 then begin
        if not !swept then sweep_rhs ~c_dt ~v ~rhs ~k ~n ~lanes:!sweep ~m:!mw;
        Rc_flat.forward fac ~lanes:!sweep ~m:!mw ~rhs
      end;
      stage2.vin <- stage1.vout;
      let solve = !solve in
      for a = 0 to !ms - 1 do
        let l = solve.(a) in
        let vr = ref v.(l) and it = ref 0 in
        while !it < iters do
          stage2.vout <- !vr;
          Device.eval tech stage2;
          let g = stage2.conductance in
          root.diag0 <- diag_base.(l) +. g;
          root.rhs0 <- rhs.(l) +. stage2.current +. (g *. !vr);
          Rc_flat.root_solve fac ~lane:l root ~rhs;
          (* As in [advance_internal]: [rhs] is fixed within the
             step. *)
          it := if same_bits root.v0 !vr then iters else !it + 1;
          vr := root.v0
        done;
        roots.(l) <- root.v0;
        (* A +0 root from rest: the back-substitution would repeat the
           fixed step's. *)
        if !resting = 0 then mb := !ms
        else if not (rest.(l) && fixed.(l) && same_bits root.v0 0.) then begin
          backing.(!mb) <- l;
          incr mb
        end
      done;
      (* Once no lane is at rest, every step sweeps every live lane, so
         the back-substitution sweeps the next step's rhs as it goes. *)
      if !mb > 0 then begin
        swept := !resting = 0;
        Rc_flat.back fac ~lanes:!back ~m:!mb ~roots ~rhs ~into:v
          ~next:(if !swept then c_dt else [||])
      end;
      if !resting > 0 then begin
        for a = 0 to !mb - 1 do
          let l = backing.(a) in
          if rest.(l) then
            if lane_at_rest v ~k ~n l then fixed.(l) <- true
            else begin
              rest.(l) <- false;
              decr resting
            end
        done;
        for a = 0 to !ms - 1 do
          let l = solve.(a) in
          if not (rest.(l) && same_bits stage1.vout vdd) then quiet.(l) <- false
        done
      end
    end;
    t := t_new;
    incr steps;
    let s = !steps in
    if s = Array.length samples.times then begin
      let len = 2 * s in
      samples.times <- regrow samples.times ~len ~keep:s;
      for a = 0 to !nlive - 1 do
        for j = 0 to ns - 1 do
          let r = (live.(a) * ns) + j in
          rows.(r) <- regrow rows.(r) ~len ~keep:s
        done
      done
    end;
    samples.times.(s) <- t_new;
    let settle_check = s mod 64 = 0 && t_new > t_input_end && t_new > t_settle in
    (* Each live lane records the step, then may end: at [stop_at] or
       settled, it stops recording and drops out of the sweeps. *)
    let a = ref 0 in
    while !a < !nlive do
      let l = live.(!a) in
      for j = 0 to ns - 1 do
        rows.((l * ns) + j).(s) <- v.((src.(j) * k) + l)
      done;
      if stop then
        for j = 0 to ns - 1 do
          if (not reached.((l * ns) + j)) && v.((src.(j) * k) + l) >= level
          then begin
            reached.((l * ns) + j) <- true;
            pending.(l) <- pending.(l) - 1
          end
        done;
      if settle_check then begin
        let ok = ref (vin >= 0.99 *. vdd) and i = ref 0 in
        while !ok && !i < n do
          if v.((!i * k) + l) < 0.99 *. vdd then ok := false;
          incr i
        done;
        settled.(l) <- !ok
      end;
      if settled.(l) || (stop && pending.(l) = 0) then begin
        len.(l) <- s + 1;
        if rest.(l) then decr resting;
        drop live ~m:!nlive !a;
        decr nlive
      end
      else incr a
    done
  done;
  for a = 0 to !nlive - 1 do
    len.(live.(a)) <- !steps + 1
  done;
  (* Copied out: the buffer's next run overwrites it. *)
  Array.mapi
    (fun l (f : Rc_flat.t) ->
      let ts = Array.sub samples.times 0 len.(l) in
      let wave j = W.make ts (Array.sub rows.((l * ns) + j) 0 len.(l)) in
      let recorded = List.mapi (fun j (tag, _) -> (tag, wave (j + 1))) f.tag_index in
      { vdd; recorded; root = wave 0; settled_flag = settled.(l) })
    flats

let run ~config ~samples tech driver trees =
  validate config;
  if Array.length trees = 0 then [||]
  else begin
    let flats = Array.map Rc_flat.of_tree trees in
    check_shapes flats;
    run_lanes config tech driver samples flats
  end

let simulate_lanes ?(config = default_config) tech driver trees =
  run ~config ~samples:(buffer ()) tech driver trees

let simulate ?(config = default_config) ?(buffer = buffer ()) tech driver tree =
  (run ~config ~samples:buffer tech driver [| tree |]).(0)

let waveform r tag =
  match List.assoc_opt tag r.recorded with
  | Some w -> w
  | None ->
      invalid_arg
        (Printf.sprintf "Transient.waveform: tag %S not recorded (recorded: [%s])"
           tag (String.concat "; " (List.map fst r.recorded)))

let root_waveform r = r.root
let settled r = r.settled_flag

let stage_delay r ~input ~tag =
  let w = waveform r tag in
  W.delay_50 input w ~vdd:r.vdd

let node_slew r ~tag =
  let w = waveform r tag in
  W.slew_10_90 w ~vdd:r.vdd
