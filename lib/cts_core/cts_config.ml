type hstructure = H_none | H_reestimate | H_correct
type insertion = Greedy | Optimal_dp

type t = {
  slew_limit : float;
  slew_target : float;
  topology_beta : float;
  assumed_driver : Circuit.Buffer_lib.t;
  hstructure : hstructure;
  prefer_small_within : float;
  sink_offsets : (string * float) list;
  enable_balance : bool;
  enable_binary_search : bool;
  insertion : insertion;
  dp_area_weight : float;
  dp_grid : int;
}

(* The mid-size buffer: neither the weakest nor the most power-hungry
   assumption for a yet-unknown upstream driver. *)
let mid_buffer lib =
  let sorted =
    List.sort
      (fun (a : Circuit.Buffer_lib.t) b -> Float.compare a.size b.size)
      lib
  in
  List.nth sorted (List.length sorted / 2)

let default dl =
  {
    slew_limit = 100e-12;
    slew_target = 80e-12;
    topology_beta = Topology.default_beta;
    assumed_driver = mid_buffer (Delaylib.buffers dl);
    hstructure = H_none;
    prefer_small_within = 60.;
    sink_offsets = [];
    enable_balance = true;
    enable_binary_search = true;
    insertion = Greedy;
    dp_area_weight = 0.2e-12;
    dp_grid = 16;
  }

let with_hstructure t h = { t with hstructure = h }
let with_insertion t i = { t with insertion = i }

let validate t =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  (* NaN and infinities pass every comparison below, so each float field
     is first checked on its own. *)
  List.iter
    (fun (name, v) ->
      if not (Float.is_finite v) then err "%s must be finite (got %g)" name v)
    [
      ("slew_limit", t.slew_limit);
      ("slew_target", t.slew_target);
      ("topology_beta", t.topology_beta);
      ("prefer_small_within", t.prefer_small_within);
      ("dp_area_weight", t.dp_area_weight);
    ];
  List.iter
    (fun (sink, v) ->
      if not (Float.is_finite v) then
        err "sink_offsets: the offset of %s must be finite (got %g)" sink v)
    t.sink_offsets;
  if t.slew_target <= 0. then
    err "slew_target must be positive (got %g s)" t.slew_target;
  if t.slew_target > t.slew_limit then
    err "slew_target (%g s) must not exceed slew_limit (%g s)" t.slew_target
      t.slew_limit;
  if t.topology_beta < 0. then
    err
      "topology_beta must be non-negative (got %g um/s): a negative weight \
       rewards delay imbalance"
      t.topology_beta;
  if t.prefer_small_within < 0. then
    err
      "prefer_small_within must be non-negative (got %g um): below zero no \
       buffer is within it of the best span"
      t.prefer_small_within;
  if t.dp_area_weight < 0. then
    err "dp_area_weight must be non-negative (got %g s/X)" t.dp_area_weight;
  if t.dp_grid < 2 then
    err "dp_grid must be >= 2 (got %d): the DP needs at least two \
         candidate positions per run" t.dp_grid;
  List.rev !errs
