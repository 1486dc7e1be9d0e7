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

(* The sweeps index their arrays unchecked. What makes that safe is
   checked here once per factor (the shape) and once per sweep (the
   caller's arrays and lane indices): every index a loop forms is then
   in bounds. The message is only formatted on failure, so a sweep's
   checks allocate nothing. *)
let fail fn fmt = Printf.ksprintf (fun m -> invalid_arg ("Rc_flat." ^ fn ^ ": " ^ m)) fmt

let check_length fn name a len =
  if Array.length a <> len then
    fail fn "%s has length %d, must be %d" name (Array.length a) len

let check_shape lanes ~diag =
  let k = Array.length lanes in
  if k = 0 then fail "factor" "no lanes";
  let { n; parent; _ } : t = lanes.(0) in
  if n < 1 then fail "factor" "n = %d, must be >= 1" n;
  Array.iteri
    (fun l (lane : t) ->
      if lane.n <> n then
        fail "factor" "lane %d's n = %d, must be lane 0's %d" l lane.n n;
      let field name a =
        if Array.length a <> n then
          fail "factor" "lane %d's %s has length %d, must be %d" l name (Array.length a) n
      in
      field "parent" lane.parent;
      field "g_edge" lane.g_edge;
      field "cap" lane.cap)
    lanes;
  if parent.(0) <> -1 then fail "factor" "parent.(0) = %d, must be -1" parent.(0);
  for i = 1 to n - 1 do
    let p = parent.(i) in
    if p < 0 || p >= i then fail "factor" "parent.(%d) = %d, must be in [0, %d)" i p i
  done;
  check_length "factor" "diag" diag (n * k)

let factor lanes ~diag =
  check_shape lanes ~diag;
  let k = Array.length lanes in
  let { n; parent; _ } : t = lanes.(0) in
  (* A copy: the caller's array could change after the check. *)
  let parent = Array.copy parent in
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

let check_lanes fn f ~lanes ~m =
  if m < 0 || m > Array.length lanes then
    fail fn "m = %d, must be in [0, %d]" m (Array.length lanes);
  for a = 0 to m - 1 do
    let l = lanes.(a) in
    if l < 0 || l >= f.k then fail fn "lanes.(%d) = %d, must be in [0, k = %d)" a l f.k
  done

external get : float array -> int -> float = "%array_unsafe_get"
external set : float array -> int -> float -> unit = "%array_unsafe_set"
external iget : int array -> int -> int = "%array_unsafe_get"

(* Each sweep visits the nodes once. A lone lane takes a loop without
   the lane indirection that also carries the value just computed along
   a chain edge ([parent.(i) = i - 1]) in a register, instead of storing
   it and loading it back as the next node's operand: the same float
   operations on the same values. *)
let forward f ~lanes ~m ~rhs =
  check_lanes "forward" f ~lanes ~m;
  check_length "forward" "rhs" rhs (f.n * f.k);
  let k = f.k and parent = f.parent and mult = f.mult in
  if m = 1 then begin
    let l = lanes.(0) in
    (* [carry] is node [i]'s rhs when [chained]: node [i + 1]'s update
       of its parent [i] was the last write to it. *)
    let carry = ref 0. and chained = ref false in
    for i = f.n - 1 downto 1 do
      let j = (i * k) + l in
      let x = if !chained then !carry else get rhs j in
      let p = iget parent i in
      chained := false;
      if p > 0 then begin
        let jp = (p * k) + l in
        let y = get rhs jp +. (get mult j *. x) in
        set rhs jp y;
        carry := y;
        chained := p = i - 1
      end
    done
  end
  else
    for i = f.n - 1 downto 1 do
      let p = iget parent i in
      if p > 0 then begin
        let bi = i * k and bp = p * k in
        for a = 0 to m - 1 do
          let l = iget lanes a in
          set rhs (bp + l) (get rhs (bp + l) +. (get mult (bi + l) *. get rhs (bi + l)))
        done
      end
    done

type root = { mutable diag0 : float; mutable rhs0 : float; mutable v0 : float }

let root_solve f ~lane r ~rhs =
  if lane < 0 || lane >= f.k then
    fail "root_solve" "lane = %d, must be in [0, k = %d)" lane f.k;
  check_length "root_solve" "rhs" rhs (f.n * f.k);
  let k = f.k and children = f.root_children in
  let d = ref r.diag0 and x = ref r.rhs0 in
  (* A loop, not Array.iter: refs captured by a closure are boxed. *)
  for a = 0 to Array.length children - 1 do
    let c = (iget children a * k) + lane in
    d := !d -. (get f.mult c *. get f.g_edge c);
    x := !x +. (get f.mult c *. get rhs c)
  done;
  r.v0 <- !x /. !d

let back f ~lanes ~m ~roots ~rhs ~into ~next =
  check_lanes "back" f ~lanes ~m;
  let nk = f.n * f.k in
  check_length "back" "roots" roots f.k;
  check_length "back" "rhs" rhs nk;
  check_length "back" "into" into nk;
  let sweep = Array.length next > 0 in
  if sweep then check_length "back" "next" next nk;
  let k = f.k and parent = f.parent and g_edge = f.g_edge and pivot = f.pivot in
  for a = 0 to m - 1 do
    let l = iget lanes a in
    set into l (get roots l);
    if sweep then set rhs l (get next l *. get roots l)
  done;
  (* Row [j] of [rhs] is read before [into.(j)] is written, and never
     again. *)
  if m = 1 then begin
    let l = lanes.(0) in
    (* [prev] is node [i - 1]'s value, the root's at [i = 1]. *)
    let prev = ref (get roots l) in
    for i = 1 to f.n - 1 do
      let j = (i * k) + l and p = iget parent i in
      let vp = if p = i - 1 then !prev else get into ((p * k) + l) in
      let x = (get rhs j +. (get g_edge j *. vp)) /. get pivot j in
      set into j x;
      prev := x;
      if sweep then set rhs j (get next j *. x)
    done
  end
  else
    for i = 1 to f.n - 1 do
      let bi = i * k and bp = iget parent i * k in
      for a = 0 to m - 1 do
        let l = iget lanes a in
        let j = bi + l in
        let x = (get rhs j +. (get g_edge j *. get into (bp + l))) /. get pivot j in
        set into j x;
        if sweep then set rhs j (get next j *. x)
      done
    done
