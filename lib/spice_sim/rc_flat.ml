type t = {
  n : int;
  parent : int array;
  g_edge : float array;
  cap : float array;
  tag_index : (string * int) list;
}

let of_tree tree =
  let n = Circuit.Rc_tree.n_nodes tree in
  let parent = Array.make n (-1) in
  let g_edge = Array.make n 0. in
  let cap = Array.make n 0. in
  let tags = ref [] in
  let counter = ref 0 in
  let rec visit (node : Circuit.Rc_tree.t) parent_idx res =
    let idx = !counter in
    incr counter;
    parent.(idx) <- parent_idx;
    g_edge.(idx) <- (if parent_idx < 0 then 0. else 1. /. res);
    cap.(idx) <- node.cap;
    (match node.tag with Some s -> tags := (s, idx) :: !tags | None -> ());
    List.iter (fun (r, child) -> visit child idx r) node.children
  in
  visit tree (-1) 0.;
  { n; parent; g_edge; cap; tag_index = List.rev !tags }

type factored = {
  tree : t;
  pivot : float array;
  mult : float array;
  root_children : int array;
}

let factor t ~diag =
  let n = t.n in
  let pivot = Array.copy diag in
  let mult = Array.make n 0. in
  let root_children = ref [] in
  (* Leaf-to-root elimination: preorder numbering guarantees
     parent.(i) < i, so a reverse sweep eliminates children first. The
     root row is left out; its children are kept in elimination order so
     [root_solve] folds them in exactly as a full sweep would. *)
  for i = n - 1 downto 1 do
    let p = t.parent.(i) in
    let f = t.g_edge.(i) /. pivot.(i) in
    mult.(i) <- f;
    if p = 0 then root_children := i :: !root_children
    else pivot.(p) <- pivot.(p) -. (f *. t.g_edge.(i))
  done;
  { tree = t; pivot; mult; root_children = Array.of_list (List.rev !root_children) }

let forward f ~rhs =
  let parent = f.tree.parent and mult = f.mult in
  for i = f.tree.n - 1 downto 1 do
    let p = parent.(i) in
    if p > 0 then rhs.(p) <- rhs.(p) +. (mult.(i) *. rhs.(i))
  done

type root = { mutable diag0 : float; mutable rhs0 : float; mutable v0 : float }

let root_solve f r ~rhs =
  let d = ref r.diag0 and x = ref r.rhs0 in
  (* A loop, not Array.iter: refs captured by a closure are boxed. *)
  for k = 0 to Array.length f.root_children - 1 do
    let c = f.root_children.(k) in
    d := !d -. (f.mult.(c) *. f.tree.g_edge.(c));
    x := !x +. (f.mult.(c) *. rhs.(c))
  done;
  r.v0 <- !x /. !d

let back f r ~rhs ~into =
  let t = f.tree in
  into.(0) <- r.v0;
  for i = 1 to t.n - 1 do
    let p = t.parent.(i) in
    into.(i) <- (rhs.(i) +. (t.g_edge.(i) *. into.(p))) /. f.pivot.(i)
  done
