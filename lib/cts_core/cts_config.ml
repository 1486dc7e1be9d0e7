type hstructure = H_none | H_reestimate | H_correct
type insertion = Greedy | Optimal_dp

type t = {
  slew_limit : float;
  slew_target : float;
  grid_bins : int;
  max_grid_bins : int;
  target_bin_len : float;
  topology_beta : float;
  assumed_driver : Circuit.Buffer_lib.t;
  max_stub_len : float;
  max_stub_cap : float;
  hstructure : hstructure;
  prefer_small_within : float;
  sink_offsets : (string * float) list;
  top_margin : float;
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
    grid_bins = 45;
    max_grid_bins = 181;
    target_bin_len = 60.;
    topology_beta = Topology.default_beta;
    assumed_driver = mid_buffer (Delaylib.buffers dl);
    max_stub_len = 300.;
    max_stub_cap = 30e-15;
    hstructure = H_none;
    prefer_small_within = 60.;
    sink_offsets = [];
    top_margin = 0.7;
    enable_balance = true;
    enable_binary_search = true;
    insertion = Greedy;
    dp_area_weight = 0.2e-12;
    dp_grid = 16;
  }

let with_hstructure t h = { t with hstructure = h }
let with_insertion t i = { t with insertion = i }

let insertion_name = function Greedy -> "greedy" | Optimal_dp -> "dp"

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
      ("target_bin_len", t.target_bin_len);
      ("topology_beta", t.topology_beta);
      ("max_stub_len", t.max_stub_len);
      ("max_stub_cap", t.max_stub_cap);
      ("prefer_small_within", t.prefer_small_within);
      ("top_margin", t.top_margin);
      ("dp_area_weight", t.dp_area_weight);
    ];
  List.iter
    (fun (sink, v) ->
      if not (Float.is_finite v) then
        err "sink_offsets: the offset of %s must be finite (got %g)" sink v)
    t.sink_offsets;
  if t.grid_bins < 1 then err "grid_bins must be >= 1 (got %d)" t.grid_bins;
  if t.max_grid_bins < t.grid_bins then
    err
      "max_grid_bins (%d) must be >= grid_bins (%d): the refinement cap \
       would undercut the initial grid"
      t.max_grid_bins t.grid_bins;
  if t.target_bin_len <= 0. then
    err "target_bin_len must be positive (got %g um)" t.target_bin_len;
  if t.slew_target <= 0. then
    err "slew_target must be positive (got %g s)" t.slew_target;
  if t.slew_target > t.slew_limit then
    err "slew_target (%g s) must not exceed slew_limit (%g s)" t.slew_target
      t.slew_limit;
  if t.top_margin <= 0. || t.top_margin > 1. then
    err "top_margin must be in (0, 1] (got %g)" t.top_margin;
  if t.max_stub_len < 0. then
    err "max_stub_len must be non-negative (got %g um)" t.max_stub_len;
  if t.max_stub_cap < 0. then
    err "max_stub_cap must be non-negative (got %g F)" t.max_stub_cap;
  if t.topology_beta < 0. then
    err
      "topology_beta must be non-negative (got %g um/s): a negative weight \
       rewards delay imbalance"
      t.topology_beta;
  if t.dp_area_weight < 0. then
    err "dp_area_weight must be non-negative (got %g s/X)" t.dp_area_weight;
  if t.dp_grid < 2 then
    err "dp_grid must be >= 2 (got %d): the DP needs at least two \
         candidate positions per run" t.dp_grid;
  List.rev !errs
