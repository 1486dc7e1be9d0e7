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
  n : int;
  k : int;
  parent : int array;
  g_edge : float array;
  pivot : float array;
  mult : float array;
  root_children : int array;
}

let factor lanes ~diag =
  let k = Array.length lanes in
  let { n; parent; _ } : t = lanes.(0) in
  let g_edge = Array.make (n * k) 0. in
  for l = 0 to k - 1 do
    for i = 0 to n - 1 do
      g_edge.((i * k) + l) <- lanes.(l).g_edge.(i)
    done
  done;
  let pivot = Array.copy diag in
  let mult = Array.make (n * k) 0. in
  let root_children = ref [] in
  (* Leaf-to-root elimination: preorder numbering guarantees
     parent.(i) < i, so a reverse sweep eliminates children first. The
     root row is left out; its children are kept in elimination order so
     [root_solve] folds them in exactly as a full sweep would. Each lane
     sees its own operations in the one-lane order. *)
  for i = n - 1 downto 1 do
    let p = parent.(i) in
    if p = 0 then root_children := i :: !root_children;
    for l = 0 to k - 1 do
      let j = (i * k) + l in
      let f = g_edge.(j) /. pivot.(j) in
      mult.(j) <- f;
      if p > 0 then pivot.((p * k) + l) <- pivot.((p * k) + l) -. (f *. g_edge.(j))
    done
  done;
  { n; k; parent; g_edge; pivot; mult;
    root_children = Array.of_list (List.rev !root_children) }

(* Each sweep visits the nodes once; a lone lane takes a loop without
   the lane indirection. *)
let forward f ~lanes ~m ~rhs =
  let k = f.k and parent = f.parent and mult = f.mult in
  if m = 1 then begin
    let l = lanes.(0) in
    for i = f.n - 1 downto 1 do
      let p = parent.(i) in
      if p > 0 then begin
        let j = (i * k) + l and jp = (p * k) + l in
        rhs.(jp) <- rhs.(jp) +. (mult.(j) *. rhs.(j))
      end
    done
  end
  else
    for i = f.n - 1 downto 1 do
      let p = parent.(i) in
      if p > 0 then begin
        let bi = i * k and bp = p * k in
        for a = 0 to m - 1 do
          let l = lanes.(a) in
          rhs.(bp + l) <- rhs.(bp + l) +. (mult.(bi + l) *. rhs.(bi + l))
        done
      end
    done

type root = { mutable diag0 : float; mutable rhs0 : float; mutable v0 : float }

let root_solve f ~lane r ~rhs =
  let k = f.k in
  let d = ref r.diag0 and x = ref r.rhs0 in
  (* A loop, not Array.iter: refs captured by a closure are boxed. *)
  for a = 0 to Array.length f.root_children - 1 do
    let c = (f.root_children.(a) * k) + lane in
    d := !d -. (f.mult.(c) *. f.g_edge.(c));
    x := !x +. (f.mult.(c) *. rhs.(c))
  done;
  r.v0 <- !x /. !d

let back f ~lanes ~m ~roots ~rhs ~into ~next =
  let k = f.k and parent = f.parent and g_edge = f.g_edge and pivot = f.pivot in
  let sweep = Array.length next > 0 in
  for a = 0 to m - 1 do
    let l = lanes.(a) in
    into.(l) <- roots.(l);
    if sweep then rhs.(l) <- next.(l) *. roots.(l)
  done;
  (* Row [j] of [rhs] is read before [into.(j)] is written, and never
     again. *)
  if m = 1 then begin
    let l = lanes.(0) in
    for i = 1 to f.n - 1 do
      let j = (i * k) + l in
      let x = (rhs.(j) +. (g_edge.(j) *. into.((parent.(i) * k) + l))) /. pivot.(j) in
      into.(j) <- x;
      if sweep then rhs.(j) <- next.(j) *. x
    done
  end
  else
    for i = 1 to f.n - 1 do
      let bi = i * k and bp = parent.(i) * k in
      for a = 0 to m - 1 do
        let l = lanes.(a) in
        let j = bi + l in
        let x = (rhs.(j) +. (g_edge.(j) *. into.(bp + l))) /. pivot.(j) in
        into.(j) <- x;
        if sweep then rhs.(j) <- next.(j) *. x
      done
    done
