module Spice_deck = Circuit.Spice_deck

let node_name (n : Ctree.t) prefix = Printf.sprintf "%s%d" prefix n.Ctree.id

(* End of the deck's transient run. *)
let t_stop = 20e-9

let to_deck tech (root : Ctree.t) =
  (match root.Ctree.kind with
  | Ctree.Buf _ -> ()
  | Ctree.Sink _ | Ctree.Merge ->
      invalid_arg "Ctree_netlist.to_deck: root must be a buffer");
  let b = Stdlib.Buffer.create 4096 in
  let add s = Stdlib.Buffer.add_string b s in
  add (Spice_deck.header tech);
  let ramp = Ctree.source_slew /. 0.8 in
  add
    (Printf.sprintf "Vclk clkin 0 PWL(0 0 100p 0 %.4g '%g')\n"
       (100e-12 +. ramp) tech.Circuit.Tech.vdd);
  let sinks = ref [] in
  (* Each node owns an electrical net. Buffers split their net into
     <name>i (gate) and <name>o (output stage). *)
  let net_of (n : Ctree.t) ~side =
    match n.Ctree.kind with
    | Ctree.Buf _ -> node_name n "n" ^ side
    | Ctree.Sink _ | Ctree.Merge -> node_name n "n"
  in
  let rec emit (n : Ctree.t) =
    (match n.Ctree.kind with
    | Ctree.Buf buf ->
        add
          (Spice_deck.buffer_card
             ~name:(node_name n "b")
             ~buf
             ~input:(net_of n ~side:"i")
             ~output:(net_of n ~side:"o"))
    | Ctree.Sink { name; cap } ->
        sinks := name :: !sinks;
        add (Spice_deck.sink_card ~name ~node:(net_of n ~side:"") ~cap)
    | Ctree.Merge -> ());
    List.iter
      (fun (e : Ctree.edge) ->
        add
          (Spice_deck.wire_card tech
             ~name:(Printf.sprintf "w%d_%d" n.Ctree.id e.Ctree.child.Ctree.id)
             ~from_node:(net_of n ~side:"o")
             ~to_node:(net_of e.Ctree.child ~side:"i")
             ~length:e.Ctree.length);
        emit e.Ctree.child)
      n.Ctree.children
  in
  (* Tie the clock source straight to the root buffer's gate. *)
  add (Printf.sprintf "Rsrc clkin %s 0.001\n" (net_of root ~side:"i"));
  emit root;
  add
    (Spice_deck.measure_cards ~vdd:tech.Circuit.Tech.vdd ~source_node:"clkin"
       ~sinks:(List.rev !sinks));
  add (Spice_deck.footer ~t_stop);
  Stdlib.Buffer.contents b

let write_file tech root path =
  let deck = to_deck tech root in
  let oc = open_out path in
  output_string oc deck;
  close_out oc
