type node_data = { mu1 : float; mu2 : float }

type t = (string * node_data) list

let analyze ?(source_res = 0.) tree =
  (* Wrap the tree behind the source resistance so the recursion treats
     the driver like any other edge (a zero resistance is replaced by a
     negligible one to keep the structure uniform). *)
  let r_src = Float.max source_res 1e-9 in
  let root : Circuit.Rc_tree.t =
    { cap = 0.; tag = None; children = [ (r_src, tree) ] }
  in
  let acc = ref [] in
  (* First pass: m1. Returns (sum of C_k over subtree, list of nodes with
     partial results). We do two explicit passes, materializing the tree
     into a mutable array for the second-moment recursion. *)
  let nodes = ref [] in
  let counter = ref 0 in
  (* Collect nodes in preorder with parent links. *)
  let rec collect (n : Circuit.Rc_tree.t) parent res =
    let id = !counter in
    incr counter;
    let cell = (id, parent, res, n.Circuit.Rc_tree.cap, n.Circuit.Rc_tree.tag) in
    nodes := cell :: !nodes;
    List.iter (fun (r, c) -> collect c id r) n.Circuit.Rc_tree.children
  in
  collect root (-1) 0.;
  let arr = Array.of_list (List.rev !nodes) in
  let n = Array.length arr in
  let parent = Array.map (fun (_, p, _, _, _) -> p) arr in
  let res = Array.map (fun (_, _, r, _, _) -> r) arr in
  let cap = Array.map (fun (_, _, _, c, _) -> c) arr in
  let tag = Array.map (fun (_, _, _, _, t) -> t) arr in
  (* Subtree capacitance-weighted sums, leaves to root (ids are preorder
     so a reverse sweep accumulates children into parents). *)
  let subtree_sum weights =
    let s = Array.copy weights in
    for i = n - 1 downto 1 do
      s.(parent.(i)) <- s.(parent.(i)) +. s.(i)
    done;
    s
  in
  let moment prev_m =
    (* I_j(v) = sum_{k in subtree v} C_k m_{j-1}(k);
       m_j(v) = m_j(parent v) - R_v I_j(v); m_j(root) = 0. *)
    let w = Array.init n (fun i -> cap.(i) *. prev_m.(i)) in
    let i_sub = subtree_sum w in
    let m = Array.make n 0. in
    for i = 1 to n - 1 do
      m.(i) <- m.(parent.(i)) -. (res.(i) *. i_sub.(i))
    done;
    m
  in
  let m0 = Array.make n 1. in
  let m1 = moment m0 in
  let m2 = moment m1 in
  for i = 0 to n - 1 do
    match tag.(i) with
    | None -> ()
    | Some name ->
        let mu1 = -.m1.(i) and mu2 = 2. *. m2.(i) in
        acc := (name, { mu1; mu2 }) :: !acc
  done;
  List.rev !acc

let find t name = List.assoc name t
let elmore t name = (find t name).mu1

let d2m t name =
  let d = find t name in
  let m2_circuit = d.mu2 /. 2. in
  if m2_circuit <= 0. then 0.
  else Float.log 2. *. d.mu1 *. d.mu1 /. sqrt m2_circuit

let step_slew t name =
  let d = find t name in
  let var = d.mu2 -. (d.mu1 *. d.mu1) in
  (* z_{0.9} - z_{0.1} of a unit Gaussian. *)
  2.5631 *. sqrt (Float.max 0. var)

let ramp_slew t name ~input_slew =
  let s = step_slew t name in
  sqrt ((s *. s) +. (input_slew *. input_slew))
