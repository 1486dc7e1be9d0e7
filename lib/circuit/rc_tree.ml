type t = { cap : float; tag : string option; children : (float * t) list }

let leaf ?tag cap = { cap; tag; children = [] }
let node ?tag ?(cap = 0.) children = { cap; tag; children }

let wire tech ?(min_segments = 10) ?(max_segment_len = 25.) ~length tail =
  if length < 0. then invalid_arg "Rc_tree.wire: negative length";
  if length < 1e-9 then (1e-3, tail)
  else begin
    let by_len = int_of_float (Float.ceil (length /. max_segment_len)) in
    let n = Int.max min_segments by_len in
    let seg = length /. float_of_int n in
    let r_seg = Tech.wire_res tech seg and c_seg = Tech.wire_cap tech seg in
    (* Build from the tail upwards. Each lump is a series resistance
       followed by a grounded cap at its downstream node; the last lump's
       cap is absorbed into the root of [tail]. *)
    let last = { tail with cap = tail.cap +. c_seg } in
    let rec prepend k sub =
      if k = 0 then sub
      else
        prepend (k - 1)
          { cap = c_seg; tag = None; children = [ (r_seg, sub) ] }
    in
    (r_seg, prepend (n - 1) last)
  end

let rec total_cap t =
  List.fold_left (fun acc (_, c) -> acc +. total_cap c) t.cap t.children

let rec n_nodes t =
  List.fold_left (fun acc (_, c) -> acc + n_nodes c) 1 t.children
