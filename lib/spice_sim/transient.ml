module W = Waveform
module Tech = Circuit.Tech
module Buffer_lib = Circuit.Buffer_lib
module Device = Circuit.Device

type driver = Vsource of W.t | Driven_buffer of Circuit.Buffer_lib.t * W.t

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

let g_source = 1e4 (* 0.1 mohm source impedance for Dirichlet forcing *)

(* Sample rows: row 0 holds the times, row [j > 0] node [src.(j)]. A
   full row doubles; its copied second half is overwritten before read. *)
let[@inline] record (rows : float array array) src (v : float array) k t =
  if k = Array.length rows.(0) then
    for j = 0 to Array.length rows - 1 do
      rows.(j) <- Array.append rows.(j) rows.(j)
    done;
  rows.(0).(k) <- t;
  for j = 1 to Array.length src - 1 do
    rows.(j).(k) <- v.(src.(j))
  done

let simulate ?(config = default_config) (tech : Tech.t) driver tree =
  validate config;
  let flat = Rc_flat.of_tree tree in
  let n = flat.Rc_flat.n in
  let cap = Array.copy flat.Rc_flat.cap in
  let dt = config.dt and iters = config.newton_iters in
  (* A buffer's stage 1 drives its internal node (starting at Vdd),
     stage 2 the root, whose load gains the output diffusion
     capacitance. A source drives the root directly. *)
  let input, buffer, size1, size2, c_dt1 =
    match driver with
    | Vsource w -> (w, false, 0., 0., 0.)
    | Driven_buffer (buf, w) ->
        cap.(0) <- cap.(0) +. Buffer_lib.output_cap tech buf;
        ( w, true, buf.Buffer_lib.stage1_size, buf.Buffer_lib.size,
          Buffer_lib.internal_cap tech buf /. dt )
  in
  let c_dt = Array.map (fun c -> c /. dt) cap in
  (* Static part of the diagonal: C/dt + sum of incident edge
     conductances. *)
  let diag_base = Array.copy c_dt in
  for i = 1 to n - 1 do
    diag_base.(i) <- diag_base.(i) +. flat.Rc_flat.g_edge.(i);
    let p = flat.Rc_flat.parent.(i) in
    diag_base.(p) <- diag_base.(p) +. flat.Rc_flat.g_edge.(i)
  done;
  let fac = Rc_flat.factor flat ~diag:diag_base in
  let root = { Rc_flat.diag0 = 0.; rhs0 = 0.; v0 = 0. } in
  let v = Array.make n 0. and rhs = Array.make n 0. in
  let vdd = tech.vdd and vt = tech.vt in
  (* Recorded: the root and every tagged node. *)
  let src = Array.of_list (0 :: 0 :: List.map snd flat.Rc_flat.tag_index) in
  let rows = Array.map (fun _ -> Array.make 1024 0.) src in
  let t0 = W.t_start input and t_input_end = W.t_end input in
  let t_settle = t0 +. (config.t_margin /. 10.) in
  let cursor = W.cursor input and at = { W.time = t0; value = 0. } in
  let stage1 = Device.inverter tech ~size:size1 ~vin:0. in
  let stage2 = Device.inverter tech ~size:size2 ~vin:vdd in
  stage1.vout <- vdd;
  (* At rest (DESIGN.md 5p): [rest] while every tree node is +0, [fixed]
     once a solved step showed that the tree maps rest to rest, [quiet]
     while the internal node is also still at Vdd. *)
  let quiet = ref (buffer && stage1_quiescent tech ~size:size1 ~c_dt:c_dt1) in
  let rest = ref true and fixed = ref false in
  record rows src v 0 t0;
  (* [stop_at] (DESIGN.md 5s): [reached.(j)] once sample row [j] has
     had a value >= [level], the comparison [Waveform.crossing] makes
     (row 0, the times, from the start); [pending] counts the rows that
     have not. *)
  let stop = Option.is_some config.stop_at in
  let level = vdd *. Option.value config.stop_at ~default:1. in
  let reached = Array.mapi (fun j i -> j = 0 || v.(i) >= level) src in
  let pending = ref (List.length (List.filter not (Array.to_list reached))) in
  let t = ref t0 and steps = ref 0 and settled = ref false in
  while (not !settled) && not (stop && !pending = 0) && !t < config.t_max do
    let t_new = !t +. dt in
    at.time <- t_new;
    W.read cursor at;
    let vin = at.value in
    if not (!quiet && !fixed && 0. <= vin && vin <= vt) then begin
      (* The buffer's internal node first (it sees only the input and
         its own capacitance), then one rhs sweep, Newton on the root
         unknown alone and one back-substitution. *)
      if buffer then begin
        stage1.vin <- vin;
        advance_internal tech stage1 ~c_dt:c_dt1 ~iters
      end;
      (* At rest, [rhs] still holds the fixed step's sweep. *)
      if not (!rest && !fixed) then begin
        for i = 0 to n - 1 do
          rhs.(i) <- c_dt.(i) *. v.(i)
        done;
        Rc_flat.forward fac ~rhs
      end;
      if buffer then begin
        stage2.vin <- stage1.vout;
        let vr = ref v.(0) and k = ref 0 in
        while !k < iters do
          stage2.vout <- !vr;
          Device.eval tech stage2;
          let g = stage2.conductance in
          root.diag0 <- diag_base.(0) +. g;
          root.rhs0 <- rhs.(0) +. stage2.current +. (g *. !vr);
          Rc_flat.root_solve fac root ~rhs;
          (* As in [advance_internal]: [rhs] is fixed within the step. *)
          k := if same_bits root.v0 !vr then iters else !k + 1;
          vr := root.v0
        done
      end
      else begin
        root.diag0 <- diag_base.(0) +. g_source;
        root.rhs0 <- rhs.(0) +. (g_source *. vin);
        Rc_flat.root_solve fac root ~rhs
      end;
      (* A +0 root from rest: the back-substitution would repeat the
         fixed step's. *)
      if not (!rest && !fixed && same_bits root.v0 0.) then begin
        Rc_flat.back fac root ~rhs ~into:v;
        if !rest then
          if Array.for_all (fun x -> same_bits x 0.) v then fixed := true
          else rest := false
      end;
      if not (!rest && same_bits stage1.vout vdd) then quiet := false
    end;
    t := t_new;
    incr steps;
    record rows src v !steps t_new;
    if stop then
      for j = 1 to Array.length src - 1 do
        if (not reached.(j)) && v.(src.(j)) >= level then begin
          reached.(j) <- true;
          decr pending
        end
      done;
    if !steps mod 64 = 0 && t_new > t_input_end && t_new > t_settle then begin
      let ok = ref (vin >= 0.99 *. vdd) and i = ref 0 in
      while !ok && !i < n do
        if v.(!i) < 0.99 *. vdd then ok := false;
        incr i
      done;
      settled := !ok
    end
  done;
  let len = !steps + 1 in
  let ts = Array.sub rows.(0) 0 len in
  let wave j = W.make ts (Array.sub rows.(j) 0 len) in
  let recorded = List.mapi (fun j (tag, _) -> (tag, wave (j + 2))) flat.tag_index in
  { vdd; recorded; root = wave 1; settled_flag = !settled }

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
