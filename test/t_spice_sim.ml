(* Tests for the transient simulator: the tree solver against dense
   reference solves, and physics invariants of the integration. *)

module T = Spice_sim.Transient
module Rc_flat = Spice_sim.Rc_flat
module Rc = Circuit.Rc_tree
module W = Waveform
module B = Circuit.Buffer_lib
module M = Numerics.Matrix

let tech = Circuit.Tech.default
let vdd = tech.Circuit.Tech.vdd
let lib = B.default_library
let b20 = B.by_name lib "BUF20X"
let check_f eps = Alcotest.(check (float eps))

(* ---------------- Rc_flat ---------------- *)

let flat_preorder_parents () =
  let tree =
    Rc.node ~tag:"root"
      [
        (1., Rc.node ~tag:"a" [ (2., Rc.leaf ~tag:"a1" 1e-15) ]);
        (3., Rc.leaf ~tag:"b" 2e-15);
      ]
  in
  let f = Rc_flat.of_tree tree in
  Alcotest.(check int) "n" 4 f.Rc_flat.n;
  Alcotest.(check int) "root parent" (-1) f.Rc_flat.parent.(0);
  (* Preorder: every parent precedes its children. *)
  Array.iteri
    (fun i p ->
      if i > 0 then Alcotest.(check bool) "parent before child" true (p < i))
    f.Rc_flat.parent;
  let index_of_tag tag = List.assoc tag f.Rc_flat.tag_index in
  Alcotest.(check int) "tag lookup" 0 (index_of_tag "root");
  Alcotest.(check bool) "all tags present" true
    (List.for_all
       (fun t -> index_of_tag t >= 0)
       [ "root"; "a"; "a1"; "b" ])

(* The factored tree solve must agree with a dense Gaussian elimination
   on the same symmetric system, for every lane of a group of one shape
   with per-lane conductances and diagonals. *)
let flat_solve_matches_dense () =
  let rng = Util.Rng.create 1234 in
  for _ = 1 to 10 do
    (* Random tree with random conductances and diagonals. *)
    let n = 2 + Util.Rng.int rng 12 in
    let k = 1 + Util.Rng.int rng 4 in
    let parent = Array.init n (fun i -> if i = 0 then -1 else Util.Rng.int rng i) in
    let lanes =
      Array.init k (fun _ ->
          let g = Array.init n (fun i -> if i = 0 then 0. else Util.Rng.float_range rng 0.1 2.) in
          let extra = Array.init n (fun _ -> Util.Rng.float_range rng 0.5 3.) in
          let b = Array.init n (fun _ -> Util.Rng.float_range rng (-1.) 1.) in
          (g, extra, b))
    in
    let flats =
      Array.map
        (fun (g, _, _) ->
          { Rc_flat.n; parent; g_edge = g; cap = Array.make n 0.; tag_index = [] })
        lanes
    in
    let diag = Array.make (n * k) 0. and rhs = Array.make (n * k) 0. in
    Array.iteri
      (fun l (g, extra, b) ->
        for i = 0 to n - 1 do
          diag.((i * k) + l) <- extra.(i) +. (if i > 0 then g.(i) else 0.);
          rhs.((i * k) + l) <- b.(i)
        done;
        for i = 1 to n - 1 do
          let p = (parent.(i) * k) + l in
          diag.(p) <- diag.(p) +. g.(i)
        done)
      lanes;
    let fac = Rc_flat.factor flats ~diag in
    let all = Array.init k Fun.id in
    Rc_flat.forward fac ~lanes:all ~m:k ~rhs;
    let roots = Array.make k 0. in
    for l = 0 to k - 1 do
      let root = { Rc_flat.diag0 = diag.(l); rhs0 = rhs.(l); v0 = 0. } in
      Rc_flat.root_solve fac ~lane:l root ~rhs;
      roots.(l) <- root.v0
    done;
    let x = Array.make (n * k) 0. in
    Rc_flat.back fac ~lanes:all ~m:k ~roots ~rhs ~into:x ~next:[||];
    Array.iteri
      (fun l (g, extra, b) ->
        (* Build the dense symmetric matrix. *)
        let a = M.create n n in
        for i = 0 to n - 1 do
          M.set a i i (M.get a i i +. extra.(i))
        done;
        for i = 1 to n - 1 do
          let p = parent.(i) in
          M.set a i i (M.get a i i +. g.(i));
          M.set a p p (M.get a p p +. g.(i));
          M.set a i p (M.get a i p -. g.(i));
          M.set a p i (M.get a p i -. g.(i))
        done;
        let dense = M.solve a b in
        for i = 0 to n - 1 do
          check_f 1e-8 (Printf.sprintf "lane %d x%d" l i) dense.(i) x.((i * k) + l)
        done)
      lanes
  done

(* ---------------- Oracles against the per-iteration kernel ----------------

   A reference copy of the simulator as it was before the factor-once
   rewrite (which an earlier form of this oracle showed bit-identical
   to the engine that followed): the device formula evaluated from
   scratch on every call, a full O(n) tree elimination on every Newton
   iteration, the input read by [Waveform.value_at]'s binary search,
   every step solved, and every tag recorded. The production kernel —
   bias reuse, input cursor, flat sample rows and the quiescent-prefix
   skip — must reproduce it bit for bit. *)

module Ref = struct
  let nmos_current (tech : Circuit.Tech.t) ~size ~vgs ~vds =
    if vgs <= tech.vt || vds <= 0. then 0.
    else begin
      let vov = vgs -. tech.vt in
      let idsat = tech.k_per_x *. size *. (vov ** tech.alpha) in
      let vdsat = tech.vdsat_frac *. vov in
      if vds >= vdsat then idsat
      else
        let x = vds /. vdsat in
        idsat *. x *. (2. -. x)
    end

  let inverter_current tech ~size ~vin ~vout =
    let vdd = tech.Circuit.Tech.vdd in
    let i_n = nmos_current tech ~size ~vgs:vin ~vds:vout in
    let i_p = nmos_current tech ~size ~vgs:(vdd -. vin) ~vds:(vdd -. vout) in
    i_p -. i_n

  let inverter_conductance tech ~size ~vin ~vout =
    let dv = 1e-4 in
    let i_hi = inverter_current tech ~size ~vin ~vout:(vout +. dv) in
    let i_lo = inverter_current tech ~size ~vin ~vout:(vout -. dv) in
    Float.max 0. (-.(i_hi -. i_lo) /. (2. *. dv))

  let solve (t : Rc_flat.t) ~diag ~rhs ~into =
    let n = t.n in
    for i = n - 1 downto 1 do
      let p = t.parent.(i) in
      let f = t.g_edge.(i) /. diag.(i) in
      diag.(p) <- diag.(p) -. (f *. t.g_edge.(i));
      rhs.(p) <- rhs.(p) +. (f *. rhs.(i))
    done;
    into.(0) <- rhs.(0) /. diag.(0);
    for i = 1 to n - 1 do
      let p = t.parent.(i) in
      into.(i) <- (rhs.(i) +. (t.g_edge.(i) *. into.(p))) /. diag.(i)
    done

  let advance_internal tech ~size ~cap ~dt ~iters ~vin ~v_old =
    let c_dt = cap /. dt in
    let v = ref v_old in
    for _ = 1 to iters do
      let i = inverter_current tech ~size ~vin ~vout:!v in
      let g = inverter_conductance tech ~size ~vin ~vout:!v in
      let f = (c_dt *. (!v -. v_old)) -. i in
      let fp = c_dt +. g in
      v := !v -. (f /. fp)
    done;
    Float.max (-0.1 *. tech.Circuit.Tech.vdd)
      (Float.min (1.1 *. tech.Circuit.Tech.vdd) !v)

  (* Returns the sample times, the samples of the root and of every
     tagged node (in [Rc_flat.tag_index] order), and the settled flag. *)
  let simulate (config : T.config) (tech : Circuit.Tech.t) driver tree =
    let vdd = tech.vdd in
    let flat = Rc_flat.of_tree tree in
    let n = flat.n in
    let cap = Array.copy flat.cap in
    let (T.Driven_buffer (buf, input)) = driver in
    cap.(0) <- cap.(0) +. B.output_cap tech buf;
    let dt = config.dt in
    let c_dt = Array.map (fun c -> c /. dt) cap in
    let diag_base = Array.copy c_dt in
    for i = 1 to n - 1 do
      diag_base.(i) <- diag_base.(i) +. flat.g_edge.(i);
      let p = flat.parent.(i) in
      diag_base.(p) <- diag_base.(p) +. flat.g_edge.(i)
    done;
    let v = Array.make n 0. and v_next = Array.make n 0. in
    let diag = Array.make n 0. and rhs = Array.make n 0. in
    let targets = 0 :: List.map snd flat.tag_index in
    let times = ref [] and samples = ref [] in
    let record t =
      times := t :: !times;
      samples := List.map (fun i -> v.(i)) targets :: !samples
    in
    let t0 = W.t_start input and t_input_end = W.t_end input in
    let internal_cap = B.internal_cap tech buf and stage2_size = buf.B.size in
    let v_a = ref vdd in
    record t0;
    (* [stop_at]: end once every recorded series has had a sample at or
       above the level, the initial one included. *)
    let stop = Option.is_some config.stop_at in
    let level = vdd *. Option.value config.stop_at ~default:1. in
    let reached = Array.of_list (List.map (fun i -> v.(i) >= level) targets) in
    let t = ref t0 and step_count = ref 0 and settled = ref false in
    let all_settled () =
      W.value_at input !t >= 0.99 *. vdd
      && Array.for_all (fun x -> not (x < 0.99 *. vdd)) v
    in
    while
      (not !settled) && (not (stop && Array.for_all Fun.id reached)) && !t < config.t_max
    do
      let t_new = !t +. dt in
      let vin = W.value_at input t_new in
      v_a :=
        advance_internal tech ~size:buf.B.stage1_size ~cap:internal_cap ~dt
          ~iters:config.newton_iters ~vin ~v_old:!v_a;
      let stage2_vin = !v_a in
      let vr = ref v.(0) in
      for _ = 1 to config.newton_iters do
        Array.blit diag_base 0 diag 0 n;
        for i = 0 to n - 1 do
          rhs.(i) <- c_dt.(i) *. v.(i)
        done;
        let i_dev =
          inverter_current tech ~size:stage2_size ~vin:stage2_vin ~vout:!vr
        in
        let g_dev =
          inverter_conductance tech ~size:stage2_size ~vin:stage2_vin ~vout:!vr
        in
        diag.(0) <- diag.(0) +. g_dev;
        rhs.(0) <- rhs.(0) +. i_dev +. (g_dev *. !vr);
        solve flat ~diag ~rhs ~into:v_next;
        vr := v_next.(0)
      done;
      Array.blit v_next 0 v 0 n;
      t := t_new;
      incr step_count;
      record t_new;
      List.iteri (fun j i -> if v.(i) >= level then reached.(j) <- true) targets;
      if
        !step_count mod 64 = 0
        && t_new > t_input_end
        && t_new > t0 +. (config.t_margin /. 10.)
      then settled := all_settled ()
    done;
    let columns = List.rev !samples in
    ( Array.of_list (List.rev !times),
      List.mapi
        (fun k _ -> Array.of_list (List.map (fun s -> List.nth s k) columns))
        targets,
      !settled )
end

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* ---------------- Unchecked sweeps ----------------

   [Rc_flat]'s sweeps index their arrays unchecked, on the strength of
   [factor]'s shape checks and each sweep's checks of its own arguments
   (DESIGN.md 5x). Each rejected shape or argument raises an
   [Invalid_argument] naming the field, before any array is written. *)

let hand_flat parent =
  let n = Array.length parent in
  { Rc_flat.n; parent; g_edge = Array.make n 1.; cap = Array.make n 0.; tag_index = [] }

let flat_factor_rejects_bad_shapes () =
  let rejects name msg lanes ~diag =
    Alcotest.check_raises name (Invalid_argument ("Rc_flat.factor: " ^ msg))
      (fun () -> ignore (Rc_flat.factor lanes ~diag))
  in
  let ok = hand_flat [| -1; 0; 1 |] in
  let d3 = Array.make 3 3. and d6 = Array.make 6 3. in
  rejects "root has a parent" "parent.(0) = 0, must be -1" [| hand_flat [| 0; 0; 1 |] |]
    ~diag:d3;
  rejects "parent after its child" "parent.(2) = 2, must be in [0, 2)"
    [| hand_flat [| -1; 0; 2 |] |] ~diag:d3;
  rejects "parent past its child" "parent.(1) = 2, must be in [0, 1)"
    [| hand_flat [| -1; 2; 0 |] |] ~diag:d3;
  rejects "negative parent" "parent.(2) = -1, must be in [0, 2)"
    [| hand_flat [| -1; 0; -1 |] |] ~diag:d3;
  rejects "short parent" "lane 0's parent has length 2, must be 3"
    [| { ok with Rc_flat.parent = [| -1; 0 |] } |] ~diag:d3;
  rejects "short g_edge" "lane 1's g_edge has length 2, must be 3"
    [| ok; { ok with Rc_flat.g_edge = [| 0.; 1. |] } |] ~diag:d6;
  rejects "short cap" "lane 1's cap has length 0, must be 3"
    [| ok; { ok with Rc_flat.cap = [||] } |] ~diag:d6;
  rejects "other node count" "lane 1's n = 2, must be lane 0's 3"
    [| ok; hand_flat [| -1; 0 |] |] ~diag:d6;
  rejects "short diag" "diag has length 5, must be 6" [| ok; ok |] ~diag:(Array.make 5 3.);
  rejects "no nodes" "n = 0, must be >= 1" [| hand_flat [||] |] ~diag:[||];
  rejects "no lanes" "no lanes" [||] ~diag:[||];
  (* The factor keeps its own parent array: a later write to the
     caller's cannot reach the sweeps. *)
  let parent = [| -1; 0; 1 |] in
  let fac = Rc_flat.factor [| hand_flat parent |] ~diag:d3 in
  parent.(2) <- 1_000_000;
  let rhs = [| 1.; 2.; 3. |] and into = Array.make 3 0. in
  Rc_flat.forward fac ~lanes:[| 0 |] ~m:1 ~rhs;
  Rc_flat.back fac ~lanes:[| 0 |] ~m:1 ~roots:[| 1. |] ~rhs ~into ~next:[||];
  Alcotest.(check bool) "solved on the checked shape" true
    (Array.for_all Float.is_finite into)

let flat_sweeps_reject_bad_arguments () =
  let f = hand_flat [| -1; 0; 1 |] in
  let fac = Rc_flat.factor [| f; f |] ~diag:(Array.make 6 3.) in
  let rhs = Array.init 6 float_of_int and into = Array.make 6 7. in
  let rejects name fn msg run =
    Alcotest.check_raises name (Invalid_argument (Printf.sprintf "Rc_flat.%s: %s" fn msg)) run
  in
  let forward ?(lanes = [| 0; 1 |]) ?(m = 2) ?(rhs = rhs) () =
    Rc_flat.forward fac ~lanes ~m ~rhs
  in
  let back ?(lanes = [| 0; 1 |]) ?(m = 2) ?(roots = [| 1.; 1. |]) ?(rhs = rhs)
      ?(into = into) ?(next = [||]) () =
    Rc_flat.back fac ~lanes ~m ~roots ~rhs ~into ~next
  in
  let lane_msg a l = Printf.sprintf "lanes.(%d) = %d, must be in [0, k = 2)" a l in
  rejects "forward: lane = k" "forward" (lane_msg 1 2) (forward ~lanes:[| 0; 2 |]);
  rejects "forward: negative lane" "forward" (lane_msg 0 (-1)) (forward ~lanes:[| -1 |] ~m:1);
  rejects "forward: m past lanes" "forward" "m = 2, must be in [0, 1]"
    (forward ~lanes:[| 0 |] ~m:2);
  rejects "forward: short rhs" "forward" "rhs has length 5, must be 6"
    (forward ~rhs:(Array.make 5 0.));
  rejects "back: lane = k" "back" (lane_msg 0 2) (back ~lanes:[| 2 |] ~m:1);
  rejects "back: short roots" "back" "roots has length 1, must be 2" (back ~roots:[| 1. |]);
  rejects "back: short rhs" "back" "rhs has length 3, must be 6" (back ~rhs:(Array.make 3 0.));
  rejects "back: short into" "back" "into has length 5, must be 6"
    (back ~into:(Array.make 5 0.));
  rejects "back: short next" "back" "next has length 1, must be 6" (back ~next:[| 2. |]);
  let root = { Rc_flat.diag0 = 3.; rhs0 = 0.; v0 = 0. } in
  rejects "root_solve: lane = k" "root_solve" "lane = 2, must be in [0, k = 2)" (fun () ->
      Rc_flat.root_solve fac ~lane:2 root ~rhs);
  rejects "root_solve: short rhs" "root_solve" "rhs has length 2, must be 6" (fun () ->
      Rc_flat.root_solve fac ~lane:0 root ~rhs:[| 0.; 0. |]);
  Alcotest.(check (array (float 0.))) "rhs untouched" (Array.init 6 float_of_int) rhs;
  Alcotest.(check (array (float 0.))) "into untouched" (Array.make 6 7.) into

(* Lane [l] swept alone ([m = 1], the loop that carries a chain edge's
   value in a register) against lanes 0 and 1 swept together (the lane
   loop) on one 2-lane factor: the same bits in [rhs] and [into], with
   and without a [next] sweep. Two thirds of the edges are chain edges
   ([parent.(i) = i - 1]), the rest branch off an earlier node; a
   quarter of the trees have 1 or 2 nodes. *)
let qcheck_lone_lane_matches_lane_loop =
  QCheck.Test.make ~count:500
    ~name:"Rc_flat lone-lane sweeps match the lane loop bit for bit"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let n =
        if Util.Rng.int rng 4 = 0 then 1 + Util.Rng.int rng 2 else 3 + Util.Rng.int rng 40
      in
      let parent =
        Array.init n (fun i ->
            if i = 0 then -1 else if Util.Rng.int rng 3 > 0 then i - 1 else Util.Rng.int rng i)
      in
      let k = 2 in
      let lanes =
        Array.init k (fun _ ->
            let g_edge =
              Array.init n (fun i -> if i = 0 then 0. else Util.Rng.float_range rng 0.1 2.)
            in
            { Rc_flat.n; parent; g_edge; cap = Array.make n 0.; tag_index = [] })
      in
      let diag =
        Array.init (n * k) (fun _ -> Util.Rng.float_range rng 0.5 3.)
      in
      for l = 0 to k - 1 do
        for i = 1 to n - 1 do
          let g = lanes.(l).Rc_flat.g_edge.(i) in
          diag.((i * k) + l) <- diag.((i * k) + l) +. g;
          diag.((parent.(i) * k) + l) <- diag.((parent.(i) * k) + l) +. g
        done
      done;
      let fac = Rc_flat.factor lanes ~diag in
      let rhs0 = Array.init (n * k) (fun _ -> Util.Rng.float_range rng (-1.) 1.) in
      let next =
        if Util.Rng.int rng 2 = 0 then [||]
        else Array.init (n * k) (fun _ -> Util.Rng.float_range rng 0.1 2.)
      in
      let solve swept =
        let rhs = Array.copy rhs0 and m = Array.length swept in
        Rc_flat.forward fac ~lanes:swept ~m ~rhs;
        let roots = Array.make k 0. in
        Array.iter
          (fun l ->
            let r = { Rc_flat.diag0 = diag.(l); rhs0 = rhs.(l); v0 = 0. } in
            Rc_flat.root_solve fac ~lane:l r ~rhs;
            roots.(l) <- r.v0)
          swept;
        let into = Array.make (n * k) 0. in
        Rc_flat.back fac ~lanes:swept ~m ~roots ~rhs ~into ~next;
        (rhs, into)
      in
      let lane l a = Array.init n (fun i -> a.((i * k) + l)) in
      let rhs_both, into_both = solve [| 0; 1 |] in
      List.for_all
        (fun l ->
          let rhs, into = solve [| l |] in
          bits_equal (lane l rhs) (lane l rhs_both) && bits_equal (lane l into) (lane l into_both))
        [ 0; 1 ])

(* A random RC tree: up to four root children (the root-only Newton
   folds each one's fill-in separately), random depth, resistances and
   caps, and a tag on roughly half the nodes. *)
let random_tree rng =
  let tags = ref 0 in
  let rec build depth =
    let tag =
      if Util.Rng.int rng 2 = 0 then begin
        incr tags;
        Some (Printf.sprintf "n%d" !tags)
      end
      else None
    in
    let cap = Util.Rng.float_range rng 0.2e-15 20e-15 in
    let n_children =
      if depth = 0 then 1 + Util.Rng.int rng 4
      else if depth >= 6 then 0
      else Util.Rng.int rng 3
    in
    let children =
      List.init n_children (fun _ ->
          (Util.Rng.float_range rng 5. 400., build (depth + 1)))
    in
    Rc.node ?tag ~cap children
  in
  build 0

(* Thresholds at the default, at 0 and below 0 (where a buffer's output
   PMOS conducts with its gate at Vdd, so a step from rest is not a
   fixed point), and above Vdd / 2; the last also without device
   capacitance, where an input in [Vdd - vt, vt] turns both stage-1
   devices off and its Newton denominator is 0. *)
let techs =
  List.map (fun vt -> { tech with Circuit.Tech.vt }) [ tech.Circuit.Tech.vt; 0.; -0.1; 0.6 ]
  @ [ { tech with Circuit.Tech.vt = 0.6; gate_cap_per_x = 0.; drain_cap_per_x = 0. } ]

let pwl points =
  W.make
    (Array.of_list (List.map fst points))
    (Array.of_list (List.map snd points))

(* Inputs with what the quiescent-prefix skip keys on: long holds at or
   near 0 V before the edge, inputs that stop at or below vt or sit
   exactly at vt, edges that dip back below vt after crossing it,
   staircases that repeat voltages (bias reuse) and go below 0 V, and
   cropped outputs of an upstream stage, as whole-tree signoff feeds
   them. *)
let random_input rng (tech : Circuit.Tech.t) =
  let ps x = x *. 1e-12 in
  let vt = tech.vt in
  let slew = Util.Rng.float_range rng (ps 10.) (ps 200.) in
  let t0 = Util.Rng.float_range rng 0. (ps 400.) in
  let below_vt =
    let lo = Float.min 0. vt in
    lo +. (Util.Rng.float rng 1. *. (vt -. lo))
  in
  match Util.Rng.int rng 7 with
  | 0 -> W.smooth_curve ~t0 ~vdd ~slew ()
  | 1 -> W.ramp ~t0 ~vdd ~slew ()
  | 2 ->
      let top = if Util.Rng.bool rng then vt else below_vt in
      pwl [ (0., 0.); (t0, 0.); (t0 +. slew, top); (t0 +. slew +. ps 300., top) ]
  | 3 ->
      pwl
        [ (0., 0.); (t0, vt); (t0 +. ps 200., vt);
          (t0 +. ps 200. +. slew, vdd) ]
  | 4 ->
      pwl
        [ (0., 0.); (t0, 0.); (t0 +. slew, vt +. 0.1);
          (t0 +. (2. *. slew), below_vt); (t0 +. (3. *. slew), below_vt);
          (t0 +. (4. *. slew), vdd) ]
  | 5 ->
      let levels = [| -0.05; 0.; vt /. 2.; vt; vt +. 0.05; 0.7; vdd |] in
      let t = ref 0. in
      let points =
        List.concat
          (List.init (3 + Util.Rng.int rng 6) (fun _ ->
               let level = levels.(Util.Rng.int rng (Array.length levels)) in
               let a = !t +. Util.Rng.float_range rng (ps 0.5) (ps 40.) in
               let b = a +. Util.Rng.float_range rng (ps 0.5) (ps 60.) in
               t := b;
               [ (a, level); (b, level) ]))
      in
      pwl (points @ [ (!t +. slew, vdd) ])
  | _ ->
      (* Crop 100 ps before the 1% crossing, as Ctree_sim does. *)
      let load = Rc.leaf ~tag:"gate" (Util.Rng.float_range rng 1e-15 20e-15) in
      let r, chain =
        Rc.wire tech ~length:(Util.Rng.float_range rng 50. 1500.) load
      in
      let up = W.smooth_curve ~t0 ~vdd ~slew () in
      let res =
        T.simulate tech (T.Driven_buffer (b20, up)) (Rc.node [ (r, chain) ])
      in
      let wave = T.waveform res "gate" in
      match W.crossing wave (0.01 *. vdd) with
      | Some t -> W.crop_before wave (t -. ps 100.)
      | None -> wave

(* One random stage: a tree, a tech, a random buffer driving a random
   input, and a config at dt 0.5 or 1 ps with 1 or 3 Newton
   iterations. *)
let random_case rng =
  let tree = random_tree rng in
  let tech = List.nth techs (Util.Rng.int rng (List.length techs)) in
  let input = random_input rng tech in
  let driver =
    T.Driven_buffer (List.nth lib (Util.Rng.int rng (List.length lib)), input)
  in
  let config =
    {
      T.default_config with
      T.dt = (if Util.Rng.int rng 2 = 0 then 0.5e-12 else 1e-12);
      newton_iters = (if Util.Rng.int rng 2 = 0 then 1 else 3);
      t_max = 2.5e-9;
    }
  in
  (tree, tech, driver, config)

(* Whether [res] holds the reference kernel's run of the stage: the
   Int64 bits of every sample at the root and every tag, the sample
   count and the settled flag. *)
let matches_reference config tech driver tree res =
  let times, samples, settled = Ref.simulate config tech driver tree in
  let tags = List.map fst (Rc_flat.of_tree tree).Rc_flat.tag_index in
  let waves = T.root_waveform res :: List.map (T.waveform res) tags in
  Bool.equal settled (T.settled res)
  && List.for_all (fun w -> bits_equal times (W.times w)) waves
  && List.for_all2 (fun s w -> bits_equal s (W.values w)) samples waves

let qcheck_transient_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"Transient.simulate bit-identical to the per-iteration kernel"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let tree, tech, driver, config = random_case (Util.Rng.create seed) in
      matches_reference config tech driver tree (T.simulate ~config tech driver tree))

(* [stop_at = Some l] against the same stage run to the end: its
   samples are an exact prefix of the full run's, ending at the first
   sample by which every recorded series has had one >= l * Vdd (or
   where the full run ends, if that comes first); the first crossings
   at 0.1, 0.5 and l that lie at or below l keep their bits; and
   [settled] holds only when the full run settled at the same sample.
   A quarter of the levels are a recorded sample of the full run, so
   the comparison's equality case is hit. *)
let qcheck_stop_at_is_a_prefix =
  QCheck.Test.make ~count:300
    ~name:"Transient stop_at run is an exact prefix of the full run"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let tree, tech, driver, config = random_case rng in
      let vdd = tech.Circuit.Tech.vdd in
      let series res =
        T.root_waveform res
        :: List.map (T.waveform res)
             (List.map fst (Rc_flat.of_tree tree).Rc_flat.tag_index)
      in
      let full = T.simulate ~config tech driver tree in
      let full_w = series full in
      let samples =
        List.concat_map
          (fun w ->
            List.filter (fun x -> x > 0. && x <= vdd) (Array.to_list (W.values w)))
          full_w
      in
      let l =
        match Util.Rng.int rng 4 with
        | 0 -> 0.9
        | 1 -> 1.
        | 2 when samples <> [] ->
            List.nth samples (Util.Rng.int rng (List.length samples)) /. vdd
        | _ -> 1. -. Util.Rng.float rng 1.
      in
      let stopped = T.simulate ~config:{ config with T.stop_at = Some l } tech driver tree in
      let stopped_w = series stopped in
      let level = l *. vdd in
      let n_full = W.n_samples (T.root_waveform full) in
      (* The first sample by which every series has reached [level]. *)
      let reached_at w =
        let vs = W.values w in
        let rec go i = if i >= Array.length vs || vs.(i) >= level then i else go (i + 1) in
        go 0
      in
      let expected_n =
        1 + List.fold_left (fun k w -> max k (reached_at w)) 0 full_w
      in
      let n = W.n_samples (T.root_waveform stopped) in
      let prefix a b = bits_equal a (Array.sub b 0 (Array.length a)) in
      let same_crossing a b =
        match (a, b) with
        | Some x, Some y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
        | None, None -> true
        | _ -> false
      in
      let levels = List.filter (fun c -> c <= l) [ 0.1; 0.5; l ] in
      n = min expected_n n_full
      && List.for_all2
           (fun s f ->
             prefix (W.times s) (W.times f)
             && prefix (W.values s) (W.values f)
             && List.for_all
                  (fun c ->
                    let c = c *. vdd in
                    same_crossing (W.crossing s c) (W.crossing f c))
                  levels)
           stopped_w full_w
      && Bool.equal (T.settled stopped) (T.settled full && n = n_full))

(* ---------------- Lanes ---------------- *)

(* A lane of [tree]'s group: its shape and tags, with every capacitance
   and resistance scaled by a per-lane factor in [1/4, 4] and a per-node
   one in [0.8, 1.25], so the lanes of a group converge, settle and stop
   at different steps. *)
let relane rng (tree : Rc.t) =
  let lane = 4. ** Util.Rng.float_range rng (-1.) 1. in
  let f () = lane *. (1.25 ** Util.Rng.float_range rng (-1.) 1.) in
  let rec go (t : Rc.t) =
    Rc.node ?tag:t.tag ~cap:(t.cap *. f ())
      (List.map (fun (r, child) -> (r *. f (), go child)) t.children)
  in
  go tree

(* The scalar oracle's stages as groups of k in 1..7 lanes, with
   [stop_at] [None] or a uniform level: every lane must be the reference
   kernel's run of its own tree. *)
let qcheck_lanes_match_reference =
  QCheck.Test.make ~count:100
    ~name:"Transient.simulate_lanes: every lane bit-identical to the per-iteration kernel"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let tree, tech, driver, config = random_case rng in
      let stop_at = if Util.Rng.bool rng then None else Some (1. -. Util.Rng.float rng 1.) in
      let config = { config with T.stop_at } in
      let trees = Array.init (1 + Util.Rng.int rng 7) (fun _ -> relane rng tree) in
      let res = T.simulate_lanes ~config tech driver trees in
      Array.length res = Array.length trees
      && Array.for_all2 (fun tree r -> matches_reference config tech driver tree r) trees res)

let n_samples r = W.n_samples (T.root_waveform r)

(* Characterization's shape (a wire into a tagged load) at its four load
   classes plus a 1 nF load that never reaches 90% before [t_max]: the
   lanes stop at four different steps and the last runs to the end. *)
let lanes_stop_apart () =
  let config = { T.default_config with T.dt = 1e-12; stop_at = Some 0.9; t_max = 2.5e-9 } in
  let input = W.smooth_curve ~t0:50e-12 ~vdd ~slew:80e-12 () in
  let driver = T.Driven_buffer (b20, input) in
  let stage load =
    let r, chain = Rc.wire tech ~length:600. (Rc.leaf ~tag:"load" load) in
    Rc.node [ (r, chain) ]
  in
  let trees = Array.map stage [| 0.75e-15; 5e-15; 15e-15; 35e-15; 1e-9 |] in
  let res = T.simulate_lanes ~config tech driver trees in
  Array.iteri
    (fun l r ->
      Alcotest.(check bool)
        (Printf.sprintf "lane %d matches the reference" l)
        true
        (matches_reference config tech driver trees.(l) r))
    res;
  let counts = Array.map n_samples res in
  Alcotest.(check bool) "stops strictly later with the load" true
    (counts.(0) < counts.(1) && counts.(1) < counts.(2) && counts.(2) < counts.(3)
    && counts.(3) < counts.(4));
  let last = T.waveform res.(4) "load" in
  Alcotest.(check bool) "the 1 nF load never reaches 90%" true
    (Option.is_none (W.crossing last (0.9 *. vdd)));
  Alcotest.(check bool) "and runs to t_max" true
    (W.t_end last >= config.t_max)

(* A threshold just below 0 V: at rest the output PMOS sources
   k_per_x * size * (-vt)^alpha, ~1e-321 A, into the root, which a
   light lane's root divides into a nonzero voltage and a 20 nF root
   rounds to +0 (stage 1's internal node stays at Vdd bit for bit).
   That lane stays at rest, sweeps and back-substitutes nothing, until
   the edge arrives. *)
let lane_leaves_rest_late () =
  let tech = { tech with Circuit.Tech.vt = -8e-246 } in
  let config = { T.default_config with T.dt = 1e-12; t_max = 1e-9 } in
  let input = pwl [ (0., 0.); (200e-12, 0.); (260e-12, vdd) ] in
  let driver = T.Driven_buffer (b20, input) in
  let stage root_cap =
    let r, chain = Rc.wire tech ~length:300. (Rc.leaf ~tag:"load" 5e-15) in
    Rc.node ~cap:root_cap [ (r, chain) ]
  in
  let trees = [| stage 1e-15; stage 2e-8 |] in
  let res = T.simulate_lanes ~config tech driver trees in
  Array.iteri
    (fun l r ->
      Alcotest.(check bool)
        (Printf.sprintf "lane %d matches the reference" l)
        true
        (matches_reference config tech driver trees.(l) r))
    res;
  let first_nonzero r =
    let vs = W.values (T.root_waveform r) in
    let rec go i = if i >= Array.length vs || vs.(i) <> 0. then i else go (i + 1) in
    go 0
  in
  Alcotest.(check int) "the light lane leaves rest on the first step" 1
    (first_nonzero res.(0));
  Alcotest.(check bool) "the heavy lane leaves rest with the edge" true
    (first_nonzero res.(1) > 150)

let lanes_reject_other_shapes () =
  let input = W.smooth_curve ~vdd ~slew:80e-12 () in
  let driver = T.Driven_buffer (b20, input) in
  let leaf = Rc.leaf ~tag:"a" 1e-15 in
  let base = Rc.node [ (10., leaf); (20., Rc.leaf 2e-15) ] in
  let rejects name trees what lane =
    Alcotest.check_raises name
      (Invalid_argument
         (Printf.sprintf
            "Transient.simulate_lanes: lane %d's %s differs from lane 0's" lane what))
      (fun () -> ignore (T.simulate_lanes tech driver trees))
  in
  rejects "node count" [| base; base; Rc.node [ (10., leaf) ] |] "node count" 2;
  rejects "parent array"
    [| base; Rc.node [ (10., Rc.node [ (5., leaf) ]) ] |]
    "parent array" 1;
  rejects "tag positions"
    [| base; Rc.node [ (10., Rc.leaf 1e-15); (20., Rc.leaf ~tag:"a" 2e-15) ] |]
    "tag positions" 1;
  Alcotest.(check int) "no lanes, no results" 0
    (Array.length (T.simulate_lanes tech driver [||]))

(* The inverter against the direct formula, on a grid that hits every
   branch: vin at and around vt and vdd - vt (either device off), vout
   at and one finite-difference step around 0 and vdd, and both sides
   of each device's saturation knee. One inverter is evaluated along
   the whole list, so consecutive equal inputs reuse its bias and
   changed ones must re-bias it. *)
let qcheck_device_bias_matches_formula =
  let vt = tech.Circuit.Tech.vt and dv = 1e-4 and eps = 1e-12 in
  let volts =
    [ -0.2; -.dv; 0.; dv; eps; vt -. eps; vt; vt +. eps; 0.35; 0.5;
      0.62; vdd -. vt -. eps; vdd -. vt; vdd -. vt +. eps; 0.8 -. dv; 0.8;
      vdd -. dv; vdd -. eps; vdd; vdd +. dv; vdd +. 0.2 ]
  in
  let gen_v = QCheck.Gen.(oneof [ oneofl volts; float_range (-0.3) 1.3 ]) in
  let gen_size = QCheck.Gen.(oneof [ oneofl [ 1.; 3.; 10.; 20.; 30. ]; float_range 0.5 40. ]) in
  QCheck.Test.make ~count:1000 ~name:"Device bias path bit-identical to the direct formula"
    (QCheck.make
       ~print:QCheck.Print.(pair float (list (triple bool float float)))
       QCheck.Gen.(
         pair gen_size (list_size (int_range 1 8) (triple bool gen_v gen_v))))
    (fun (size, points) ->
      let module D = Circuit.Device in
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      let _, vin0, _ = List.hd points in
      let d = D.inverter tech ~size ~vin:vin0 in
      (* [true] repeats the previous input voltage. *)
      List.for_all
        (fun (repeat, vin, vout) ->
          let vin = if repeat then d.vin else vin in
          d.vin <- vin;
          d.vout <- vout;
          D.eval tech d;
          same (D.nmos_current tech ~size ~vgs:vin ~vds:vout)
            (Ref.nmos_current tech ~size ~vgs:vin ~vds:vout)
          && same d.current (Ref.inverter_current tech ~size ~vin ~vout)
          && same d.conductance (Ref.inverter_conductance tech ~size ~vin ~vout)
          && same (D.inverter_current tech ~size ~vin ~vout)
               (Ref.inverter_current tech ~size ~vin ~vout)
          && same (D.inverter_conductance tech ~size ~vin ~vout)
               (Ref.inverter_conductance tech ~size ~vin ~vout))
        points)

(* ---------------- Transient physics ---------------- *)

let source_driven_rc_analytic () =
  (* A lumped R into C below the root: the load follows the root through
     a first-order low-pass of time constant tau = RC, so it lags the
     root by tau once the root's edge is slow against tau. A 1 pF root
     slows the buffer's edge to a few hundred ps. *)
  let input = W.smooth_curve ~vdd ~slew:80e-12 () in
  let load = Rc.leaf ~tag:"load" 100e-15 in
  let tree = Rc.node ~cap:1e-12 [ (200., load) ] in
  let res = T.simulate tech (T.Driven_buffer (b20, input)) tree in
  let tau = 200. *. 100e-15 in
  let t50 w = Option.get (W.crossing w (0.5 *. vdd)) in
  check_f (0.1 *. tau) "50% lag is tau" tau
    (t50 (T.waveform res "load") -. t50 (T.root_waveform res));
  Alcotest.(check bool) "settled" true (T.settled res)

let stage_monotone_settling () =
  let input = W.smooth_curve ~vdd ~slew:80e-12 () in
  let load = Rc.leaf ~tag:"load" 5e-15 in
  let r, chain = Rc.wire tech ~length:800. load in
  let tree = Rc.node ~tag:"out" [ (r, chain) ] in
  let res = T.simulate tech (T.Driven_buffer (b20, input)) tree in
  Alcotest.(check bool) "settled" true (T.settled res);
  let w = T.waveform res "load" in
  check_f 0.02 "reaches vdd" vdd (W.final_value w);
  (* The load voltage never overshoots the rail appreciably. *)
  Array.iter
    (fun v ->
      if v > 1.05 *. vdd || v < -0.05 *. vdd then
        Alcotest.fail "voltage out of physical range")
    (W.values w)

let delay_grows_with_length () =
  let input = W.smooth_curve ~vdd ~slew:80e-12 () in
  let delay_at len =
    let load = Rc.leaf ~tag:"load" 5e-15 in
    let r, chain = Rc.wire tech ~length:len load in
    let tree = Rc.node [ (r, chain) ] in
    let res = T.simulate tech (T.Driven_buffer (b20, input)) tree in
    Option.get (T.stage_delay res ~input ~tag:"load")
  in
  let d = List.map delay_at [ 200.; 600.; 1200. ] in
  (match d with
  | [ a; b; c ] ->
      Alcotest.(check bool) "monotone" true (a < b && b < c);
      (* Wire delay is superlinear in length: the increments grow. *)
      Alcotest.(check bool) "superlinear" true (c -. b > b -. a)
  | _ -> assert false)

let slew_grows_with_length () =
  let input = W.smooth_curve ~vdd ~slew:100e-12 () in
  let slew_at len =
    let load = Rc.leaf ~tag:"load" 1e-15 in
    let r, chain = Rc.wire tech ~length:len load in
    let tree = Rc.node [ (r, chain) ] in
    let res = T.simulate tech (T.Driven_buffer (b20, input)) tree in
    Option.get (T.node_slew res ~tag:"load")
  in
  let s = List.map slew_at [ 400.; 1000.; 2000. ] in
  match s with
  | [ a; b; c ] ->
      Alcotest.(check bool) "monotone slew" true (a < b && b < c);
      Alcotest.(check bool) "superlinear slew" true (c -. b > b -. a)
  | _ -> assert false

let bigger_buffer_is_faster () =
  let input = W.smooth_curve ~vdd ~slew:80e-12 () in
  let delay_with buf =
    let load = Rc.leaf ~tag:"load" 5e-15 in
    let r, chain = Rc.wire tech ~length:1500. load in
    let tree = Rc.node [ (r, chain) ] in
    let res = T.simulate tech (T.Driven_buffer (buf, input)) tree in
    Option.get (T.stage_delay res ~input ~tag:"load")
  in
  Alcotest.(check bool) "30X beats 10X" true
    (delay_with (B.by_name lib "BUF30X") < delay_with (B.by_name lib "BUF10X"))

let intrinsic_delay_slew_sensitivity () =
  (* The effect the paper builds Chapter 3 around: buffer intrinsic delay
     varies by several ps across input slews. *)
  let buf_delay slew =
    let input = W.smooth_curve ~vdd ~slew () in
    let load = Rc.leaf ~tag:"load" 1e-15 in
    let r, chain = Rc.wire tech ~length:100. load in
    let tree = Rc.node ~tag:"out" [ (r, chain) ] in
    let res = T.simulate tech (T.Driven_buffer (B.by_name lib "BUF10X", input)) tree in
    Option.get (W.delay_50 input (T.root_waveform res) ~vdd)
  in
  let d_fast = buf_delay 20e-12 and d_slow = buf_delay 200e-12 in
  Alcotest.(check bool) "slower input -> larger intrinsic delay" true
    (d_slow > d_fast);
  Alcotest.(check bool) "swing of several ps" true (d_slow -. d_fast > 5e-12)

let timestep_convergence () =
  (* Halving dt changes the measured delay by well under a picosecond. *)
  let input = W.smooth_curve ~vdd ~slew:80e-12 () in
  let run dt =
    let load = Rc.leaf ~tag:"load" 5e-15 in
    let r, chain = Rc.wire tech ~length:600. load in
    let tree = Rc.node [ (r, chain) ] in
    let config = { T.default_config with T.dt } in
    let res = T.simulate ~config tech (T.Driven_buffer (b20, input)) tree in
    Option.get (T.stage_delay res ~input ~tag:"load")
  in
  let d1 = run 1e-12 and d2 = run 0.25e-12 in
  Alcotest.(check bool) "dt convergence < 1ps" true (Float.abs (d1 -. d2) < 1e-12)

let branch_loads_interact () =
  (* Lengthening the right branch slows the left branch (common driver). *)
  let input = W.smooth_curve ~vdd ~slew:80e-12 () in
  let left_delay right_len =
    let l = Rc.leaf ~tag:"l" 2e-15 and r_leaf = Rc.leaf ~tag:"r" 2e-15 in
    let rl, cl = Rc.wire tech ~length:400. l in
    let rr, cr = Rc.wire tech ~length:right_len r_leaf in
    let tree = Rc.node ~tag:"out" [ (rl, cl); (rr, cr) ] in
    let res = T.simulate tech (T.Driven_buffer (b20, input)) tree in
    Option.get (T.stage_delay res ~input ~tag:"l")
  in
  Alcotest.(check bool) "sibling load slows left branch" true
    (left_delay 1200. > left_delay 100. +. 1e-12)

let unsettled_detection () =
  (* A 10X buffer into a huge capacitance within a tiny time budget must
     report not settled. *)
  let input = W.smooth_curve ~vdd ~slew:80e-12 () in
  let tree = Rc.node ~tag:"out" [ (10., Rc.leaf ~tag:"load" 5e-12) ] in
  let config = { T.default_config with T.t_max = 0.3e-9 } in
  let res =
    T.simulate ~config tech (T.Driven_buffer (B.by_name lib "BUF10X", input)) tree
  in
  Alcotest.(check bool) "not settled" false (T.settled res)

(* ---------------- Rejected inputs ---------------- *)

let one_wire_stage () =
  ( W.smooth_curve ~vdd ~slew:80e-12 (),
    Rc.node [ (100., Rc.leaf ~tag:"load" 5e-15) ] )

(* Each field outside its documented range raises instead of hanging
   (dt <= 0 never advanced time) or returning an unsettled result. *)
let config_rejects field cases () =
  let input, tree = one_wire_stage () in
  List.iter
    (fun (config, shown, need) ->
      Alcotest.check_raises
        (Printf.sprintf "%s = %s" field shown)
        (Invalid_argument
           (Printf.sprintf "Transient.simulate: config.%s = %s, must be %s"
              field shown need))
        (fun () ->
          ignore (T.simulate ~config tech (T.Driven_buffer (b20, input)) tree)))
    cases

let c = T.default_config
let positive = "finite and > 0"

let config_rejects_dt =
  config_rejects "dt"
    [ ({ c with T.dt = 0. }, "0", positive);
      ({ c with T.dt = -1e-12 }, "-1e-12", positive);
      ({ c with T.dt = Float.nan }, "nan", positive);
      ({ c with T.dt = Float.infinity }, "inf", positive) ]

let config_rejects_t_max =
  config_rejects "t_max"
    [ ({ c with T.t_max = 0. }, "0", positive);
      ({ c with T.t_max = Float.infinity }, "inf", positive) ]

let config_rejects_t_margin =
  config_rejects "t_margin"
    [ ({ c with T.t_margin = -1e-9 }, "-1e-09", "finite and >= 0");
      ({ c with T.t_margin = Float.nan }, "nan", "finite and >= 0") ]

let config_rejects_newton_iters =
  config_rejects "newton_iters"
    [ ({ c with T.newton_iters = 0 }, "0", ">= 1");
      ({ c with T.newton_iters = -2 }, "-2", ">= 1") ]

let config_rejects_stop_at =
  let bad l shown = ({ c with T.stop_at = Some l }, shown, "in (0, 1]") in
  config_rejects "stop_at"
    [ bad Float.nan "nan"; bad 0. "0"; bad (-0.5) "-0.5"; bad 1.5 "1.5" ]

(* Tags the tree does not carry (a merge node's or the root's, which
   the signoff and characterization stages no longer tag) are named in
   the error. *)
let unknown_tag_rejected () =
  let input, tree = one_wire_stage () in
  let res = T.simulate tech (T.Driven_buffer (b20, input)) tree in
  let err = Invalid_argument "Transient.waveform: tag \"out\" not recorded (recorded: [load])" in
  Alcotest.check_raises "waveform" err (fun () -> ignore (T.waveform res "out"));
  Alcotest.check_raises "stage_delay" err (fun () ->
      ignore (T.stage_delay res ~input ~tag:"out"));
  Alcotest.check_raises "node_slew" err (fun () ->
      ignore (T.node_slew res ~tag:"out"));
  Alcotest.(check bool) "recorded tag" true (T.node_slew res ~tag:"load" <> None)

(* ---------------- Reused sample buffer ----------------

   One buffer records a stage longer than its initial 1,024 samples, a
   shorter stage with more tags, then a longer one again, each under an
   input starting at its own time: every result is a fresh buffer's, in
   every sample's bits, in sample count and in [settled]. *)

let buffer_reuse_matches_fresh () =
  let wire length load tag =
    let r, chain = Rc.wire tech ~length (Rc.leaf ~tag load) in
    (r, chain)
  in
  let stages =
    [ ("long", Rc.node [ wire 3000. 300e-15 "far" ], 0.);
      ( "short",
        Rc.node [ wire 200. 2e-15 "a"; wire 300. 3e-15 "b"; wire 100. 1e-15 "c" ],
        40e-12 );
      ("longer", Rc.node [ wire 4000. 500e-15 "far"; wire 50. 2e-15 "near" ], 90e-12) ]
  in
  let buffer = T.buffer () in
  let counts =
    List.map
      (fun (name, tree, t0) ->
        let driver = T.Driven_buffer (b20, W.smooth_curve ~t0 ~vdd ~slew:80e-12 ()) in
        let fresh = T.simulate tech driver tree in
        let reused = T.simulate ~buffer tech driver tree in
        let waves r =
          T.root_waveform r
          :: List.map (T.waveform r) (List.map fst (Rc_flat.of_tree tree).Rc_flat.tag_index)
        in
        Alcotest.(check int) (name ^ ": sample count") (n_samples fresh) (n_samples reused);
        Alcotest.(check bool) (name ^ ": settled") (T.settled fresh) (T.settled reused);
        List.iter2
          (fun f r ->
            Alcotest.(check bool) (name ^ ": time bits") true (bits_equal (W.times f) (W.times r));
            Alcotest.(check bool) (name ^ ": sample bits") true
              (bits_equal (W.values f) (W.values r)))
          (waves fresh) (waves reused);
        n_samples fresh)
      stages
  in
  match counts with
  | [ long; short; longer ] ->
      Alcotest.(check bool) "past the initial capacity, shorter, longer again" true
        (long > 1024 && short < long && longer > long)
  | _ -> Alcotest.fail "three stages"

(* Every stage of a signoff records into one buffer; a second call
   starts from a fresh one and returns the same metrics. *)
let ctree_sim_repeats () =
  let dl = T_env.get_dl () in
  let d = Bmark.Synthetic.scaled (Bmark.Synthetic.find "r1") 0.05 in
  let tree = (Cts.synthesize dl (Bmark.Synthetic.sinks d)).Cts.tree in
  let show (m : Ctree_sim.metrics) =
    let bits x = Printf.sprintf "%016Lx" (Int64.bits_of_float x) in
    [ bits m.latency; bits m.skew; bits m.worst_slew; m.worst_slew_node;
      string_of_int m.n_stages; string_of_bool m.all_settled ]
    @ List.map (fun (name, d) -> name ^ " " ^ bits d) m.sink_delays
  in
  let first = Ctree_sim.simulate tech tree in
  Alcotest.(check bool) "several stages" true (first.Ctree_sim.n_stages > 1);
  Alcotest.(check (list string)) "equal metrics" (show first)
    (show (Ctree_sim.simulate tech tree))

(* ---------------- Golden bits ----------------

   The fast- and accurate-profile library files (fresh
   characterizations) and the signoff of the 13-sink r1@0.05 instance
   synthesized with the fast one, as Int64 bits; and the signoff of the
   benchmark ladder's gsrc-r4 seed-1 instance (1,903 sinks, 2,420
   stages). CTS_UPDATE_QOR_FIXTURE=<dir> writes each file to <dir>
   instead of comparing (run once, commit it), as for the QoR
   fixture. *)

let golden_path = T_env.repo_path "test/fixtures/sim/r1_fast_signoff_bits.txt"
let r4_golden_path = T_env.repo_path "test/fixtures/sim/r4_seed1_signoff_bits.txt"

let library_md5 dl =
  let file = Filename.temp_file "cts_library" ".txt" in
  Delaylib.save dl file;
  let md5 = Digest.to_hex (Digest.file file) in
  Sys.remove file;
  md5

let accurate = lazy (Delaylib.characterize ~profile:Delaylib.Accurate tech lib)
let bits x = Printf.sprintf "%016Lx" (Int64.bits_of_float x)

let golden_lines () =
  let dl = Delaylib.characterize ~profile:Delaylib.Fast tech lib in
  let d = Bmark.Synthetic.scaled (Bmark.Synthetic.find "r1") 0.05 in
  let tree = (Cts.synthesize dl (Bmark.Synthetic.sinks d)).Cts.tree in
  let m = Ctree_sim.simulate tech tree in
  [ "fast-library-md5 " ^ library_md5 dl;
    "accurate-library-md5 " ^ library_md5 (Lazy.force accurate);
    "skew " ^ bits m.Ctree_sim.skew;
    "latency " ^ bits m.Ctree_sim.latency;
    "worst-slew " ^ bits m.Ctree_sim.worst_slew ]
  @ List.map
      (fun (name, delay) -> Printf.sprintf "sink %s %s" name (bits delay))
      m.Ctree_sim.sink_delays

(* The ladder's gsrc-r4 rung at seed 1: synthetic r4 under the
   descriptor name "r4#1" (the name seeds the generator), greedy
   insertion, no H-structure correction, the accurate library. *)
let r4_golden_lines () =
  let dl = Lazy.force accurate in
  let d = Bmark.Synthetic.find "r4" in
  let sinks = Bmark.Synthetic.sinks { d with Bmark.Synthetic.name = "r4#1" } in
  let config =
    Cts_config.with_hstructure
      (Cts_config.with_insertion (Cts_config.default dl) Cts_config.Greedy)
      Cts_config.H_none
  in
  let tree = (Cts.synthesize ~config dl sinks).Cts.tree in
  let m = Ctree_sim.simulate tech tree in
  let delays =
    String.concat "\n"
      (List.map (fun (name, delay) -> name ^ " " ^ bits delay) m.Ctree_sim.sink_delays)
  in
  [ "netlist-md5 " ^ Digest.to_hex (Digest.string (Ctree_netlist.to_deck tech tree));
    "stages " ^ string_of_int m.Ctree_sim.n_stages;
    "skew " ^ bits m.Ctree_sim.skew;
    "latency " ^ bits m.Ctree_sim.latency;
    "worst-slew " ^ bits m.Ctree_sim.worst_slew;
    "sinks " ^ string_of_int (List.length m.Ctree_sim.sink_delays);
    "sink-delays-md5 " ^ Digest.to_hex (Digest.string delays) ]

let check_golden path lines =
  match Sys.getenv_opt "CTS_UPDATE_QOR_FIXTURE" with
  | Some dir ->
      let path = Filename.concat dir (Filename.basename path) in
      Out_channel.with_open_text path (fun oc ->
          List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) lines);
      Printf.printf "fixture regenerated: %s\n" path
  | None ->
      let expected =
        In_channel.with_open_text path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      Alcotest.(check (list string)) "golden bits" expected lines

let golden_signoff_bits () =
  let lines = golden_lines () in
  Alcotest.(check int) "13 sinks" 13 (List.length lines - 5);
  check_golden golden_path lines

let r4_golden_signoff_bits () = check_golden r4_golden_path (r4_golden_lines ())

let suite =
  [
    Alcotest.test_case "flat preorder/parents" `Quick flat_preorder_parents;
    Alcotest.test_case "tree solve = dense solve" `Quick flat_solve_matches_dense;
    Alcotest.test_case "factor rejects bad shapes" `Quick flat_factor_rejects_bad_shapes;
    Alcotest.test_case "sweeps reject bad arguments" `Quick flat_sweeps_reject_bad_arguments;
    QCheck_alcotest.to_alcotest qcheck_lone_lane_matches_lane_loop;
    Alcotest.test_case "RC analytic time constant" `Quick
      source_driven_rc_analytic;
    Alcotest.test_case "stage settles physically" `Quick stage_monotone_settling;
    Alcotest.test_case "delay grows with length" `Quick delay_grows_with_length;
    Alcotest.test_case "slew grows with length" `Quick slew_grows_with_length;
    Alcotest.test_case "bigger buffer faster" `Quick bigger_buffer_is_faster;
    Alcotest.test_case "intrinsic delay slew sensitivity" `Quick
      intrinsic_delay_slew_sensitivity;
    Alcotest.test_case "timestep convergence" `Quick timestep_convergence;
    Alcotest.test_case "branch loads interact" `Quick branch_loads_interact;
    Alcotest.test_case "unsettled detection" `Quick unsettled_detection;
    QCheck_alcotest.to_alcotest qcheck_transient_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_stop_at_is_a_prefix;
    QCheck_alcotest.to_alcotest qcheck_lanes_match_reference;
    Alcotest.test_case "lanes stop apart" `Quick lanes_stop_apart;
    Alcotest.test_case "lane leaves rest late" `Quick lane_leaves_rest_late;
    Alcotest.test_case "lanes reject other shapes" `Quick lanes_reject_other_shapes;
    QCheck_alcotest.to_alcotest qcheck_device_bias_matches_formula;
    Alcotest.test_case "config rejects dt" `Quick config_rejects_dt;
    Alcotest.test_case "config rejects t_max" `Quick config_rejects_t_max;
    Alcotest.test_case "config rejects t_margin" `Quick config_rejects_t_margin;
    Alcotest.test_case "config rejects newton_iters" `Quick
      config_rejects_newton_iters;
    Alcotest.test_case "config rejects stop_at" `Quick config_rejects_stop_at;
    Alcotest.test_case "unknown tag rejected" `Quick unknown_tag_rejected;
    Alcotest.test_case "reused buffer = fresh buffer" `Quick buffer_reuse_matches_fresh;
    Alcotest.test_case "ctree_sim twice, same metrics" `Quick ctree_sim_repeats;
    Alcotest.test_case "golden signoff bits (fast library, r1@0.05)" `Slow
      golden_signoff_bits;
    Alcotest.test_case "golden gsrc-r4 signoff (accurate, seed 1)" `Slow
      r4_golden_signoff_bits;
  ]
