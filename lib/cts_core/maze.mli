(** Bi-directional maze routing (Sec. 4.2.2, Fig. 4.3).

    The region between the two subtree roots is partitioned into a grid
    whose bin count per dimension starts at {!Cts_config.t} [grid_bins]
    and grows for long nets (dynamic grid refinement). Expansion runs
    from {e both} roots simultaneously: every bin carries the
    slew-legalized propagation state ({!Run.eval}) toward each root, and
    the bin with minimum delay difference — tie-broken by total
    wirelength — is picked as the tentative merge location. 

    Domain-safety: per-select memo caches and {!Run.side} scratch are
    closure-captured and private to one select; nothing is shared across
    tasks or domains. *)

type choice = {
  bin_center : Geometry.Point.t;
  d1 : float [@cts.unit "um"];
      (** Path length from port 1 to the bin (um). *)
  d2 : float [@cts.unit "um"];
  eval1 : Run.eval;
  eval2 : Run.eval;
  est_skew : float;  (** |delay1 - delay2| including top-wire estimates. *)
  bins_per_dim : int;  (** Grid resolution actually used. *)
}

val bins_for : Cts_config.t -> (float[@cts.unit "um"]) -> int
(** Grid bins per dimension for a net spanning the given distance (um):
    [grid_bins] grown toward a [target_bin_len] pitch, capped at
    [max_grid_bins] (the cap binds even against a misconfigured
    [grid_bins]; {!Cts_config.validate} rejects such configs). Exposed
    for the clamp-order regression test. *)

val cache_key : (float[@cts.unit "um"]) -> int
(** Per-side eval-cache quantization of a path length: nearest 0.1 um
    ([Float.round], symmetric around 0 — truncation aliased lengths
    0.04 um apart while splitting lengths 0.01 um apart). Exposed for
    the rounding regression test. *)

type memo
(** One expansion side's memo: per {!cache_key} cell, the side delay
    ({!side_delay} of the eval at the first distance probed in the
    cell), its feasibility and that first distance, stored unboxed.
    Closure-captured scratch of one {!select}: private to one
    evaluation, never shared across domains. *)

val memo :
  Delaylib.t -> Cts_config.t -> Port.t -> max_d:(float[@cts.unit "um"]) ->
  memo
  [@@cts.raises "Invalid_argument"]
(** [memo dl cfg port ~max_d] — an empty memo with cells for distances
    up to [max_d]. A miss evaluates through a {!Run.side} built here for
    [port] ({!Run.eval_side}, bit for bit {!Run.eval} under either
    engine): greedy replays the side's prefix chain, [Optimal_dp] adds
    the DP in the side's scratch. Adds the cell count to
    [Obs.Maze_memo_slots]. *)

val probe : memo -> (float[@cts.unit "um"]) -> int
(** [probe m d] — the index of the cell of distance [d], filled first
    on a miss. Counts [Obs.Eval_cache_hits]/[Eval_cache_misses]. A hit
    is one array read and allocates nothing. Probing a distance beyond
    [max_d] raises [Invalid_argument]. *)

val side_delay :
  Delaylib.t -> Cts_config.t -> Run.eval -> (float[@cts.unit "um"]) ->
  (float[@cts.unit "ps"])
(** [side_delay dl cfg e top_wire] — delay of one side through its top
    wire of the given length, under the assumed-driver model (driver
    intrinsic delay excluded; it is common to both sides). *)

val select : Delaylib.t -> Cts_config.t -> Port.t -> Port.t -> choice
(** Run the bi-directional expansion and return the best merge bin.
    Near-direct bins (no detour) are scanned first; detour bins are only
    explored when the direct scan leaves residual skew. Each bin probes
    both sides' {!memo}s; the best bin is tracked as scalars, and its
    [eval1]/[eval2] are rebuilt with {!Run.eval} at the first distances
    of its cells — two [Obs.Run_evals] per select. *)
