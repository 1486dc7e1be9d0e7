module Point = Geometry.Point

type kind =
  | Sink of { name : string; cap : float }
  | Merge
  | Buf of Circuit.Buffer_lib.t

type t = { id : int; kind : kind; pos : Point.t; children : edge list }
and edge = { length : float; route : Point.t list; child : t }

let source_slew = 60e-12

(* Atomic: synthesis builds subtrees from several domains at once. Raw
   ids are therefore unique but schedule-dependent; Cts renumbers the
   finished tree canonically (see [renumber]) before returning it. *)
let id_counter = Atomic.make 0
let[@cts.guarded "atomic"] fresh_id () = 1 + Atomic.fetch_and_add id_counter 1

let sink ~name ~pos ~cap =
  { id = fresh_id (); kind = Sink { name; cap }; pos; children = [] }

let merge ~pos children = { id = fresh_id (); kind = Merge; pos; children }

let buffer ~pos buf children =
  { id = fresh_id (); kind = Buf buf; pos; children }

let edge ?(route = []) ~length child = { length; route; child }

let connect ~parent_pos ?(extra = 0.) child =
  { length = Point.manhattan parent_pos child.pos +. extra;
    route = [];
    child }

let renumber t =
  let next = ref 0 in
  let rec go n =
    incr next;
    let id = !next in
    { n with id; children = List.map (fun e -> { e with child = go e.child }) n.children }
  in
  go t

let rec iter f t =
  f t;
  List.iter (fun e -> iter f e.child) t.children

let sinks t =
  let acc = ref [] in
  iter (fun n -> match n.kind with Sink _ -> acc := n :: !acc | Merge | Buf _ -> ()) t;
  List.rev !acc

let n_nodes t =
  let c = ref 0 in
  iter (fun _ -> incr c) t;
  !c

let n_buffers t =
  let c = ref 0 in
  iter (fun n -> match n.kind with Buf _ -> incr c | Sink _ | Merge -> ()) t;
  !c

let buffer_histogram t =
  let tbl = Hashtbl.create 8 in
  iter
    (fun n ->
      match n.kind with
      | Buf b ->
          let name = b.Circuit.Buffer_lib.name in
          Hashtbl.replace tbl name (1 + Option.value ~default:0 (Hashtbl.find_opt tbl name))
      | Sink _ | Merge -> ())
    t;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let total_wirelength t =
  let acc = ref 0. in
  iter (fun n -> List.iter (fun e -> acc := !acc +. e.length) n.children) t;
  !acc

let total_sink_cap t =
  List.fold_left
    (fun acc s -> match s.kind with Sink { cap; _ } -> acc +. cap | _ -> acc)
    0. (sinks t)

type cap_breakdown = {
  wire_cap : float;
  buffer_cap : float;
  sink_cap : float;
}

let capacitance_breakdown tech t =
  let wire = ref 0. and buf = ref 0. and sink = ref 0. in
  iter
    (fun n ->
      List.iter
        (fun e -> wire := !wire +. Circuit.Tech.wire_cap tech e.length)
        n.children;
      match n.kind with
      | Buf b ->
          buf :=
            !buf
            +. Circuit.Buffer_lib.input_cap tech b
            +. Circuit.Buffer_lib.internal_cap tech b
            +. Circuit.Buffer_lib.output_cap tech b
      | Sink { cap; _ } -> sink := !sink +. cap
      | Merge -> ())
    t;
  { wire_cap = !wire; buffer_cap = !buf; sink_cap = !sink }

let dynamic_power tech ~freq t =
  let b = capacitance_breakdown tech t in
  let total = b.wire_cap +. b.buffer_cap +. b.sink_cap in
  let vdd = tech.Circuit.Tech.vdd in
  total *. vdd *. vdd *. freq

let rec depth t =
  1 + List.fold_left (fun acc e -> Int.max acc (depth e.child)) 0 t.children

let validate t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let seen = Hashtbl.create 64 in
  iter
    (fun n ->
      if Hashtbl.mem seen n.id then err "duplicate node id %d" n.id;
      Hashtbl.replace seen n.id ();
      (match n.kind with
      | Sink { name; _ } ->
          if n.children <> [] then err "sink %s is not a leaf" name
      | Merge | Buf _ ->
          if List.length n.children > 2 then
            err "node %d has arity %d > 2" n.id (List.length n.children);
          if n.children = [] then err "internal node %d has no children" n.id);
      List.iter
        (fun e ->
          let d = Point.manhattan n.pos e.child.pos in
          if ((e.length +. 1e-6) [@cts.unit_ok]) < d then
            err "edge %d->%d shorter (%g) than Manhattan distance (%g)" n.id
              e.child.id e.length d)
        n.children)
    t;
  List.rev !errors

let pp_summary fmt t =
  Format.fprintf fmt
    "clock tree: %d sinks, %d buffers, %d nodes, depth %d, wirelength %.0f um"
    (List.length (sinks t))
    (n_buffers t) (n_nodes t) (depth t) (total_wirelength t)
