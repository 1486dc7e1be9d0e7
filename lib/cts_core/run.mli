(** Buffer insertion along a routing run.

    Evaluates what happens when a wire of a given length is routed upward
    from a port. Two engines share the [eval] result type and the
    slew-feasibility model (all slew/delay numbers come from the
    pre-characterized {!Delaylib}):

    - {!eval_greedy} — the paper's slew-driven walk (Sec. 4.2.2):
      buffers are inserted whenever the unbuffered span would exceed the
      slew budget, with "intelligent sizing" — every buffer type is
      evaluated and the one able to stretch the span closest to (but
      within) the limit wins, with a preference for smaller types when
      they come within {!Cts_config.t} [prefer_small_within] of the best
      span.
    - {!eval_dp} — optimal multi-cell insertion: a van Ginneken-style
      candidate-set dynamic program over (position, buffer type) states
      with inferior-candidate pruning per delay-library load class (the
      sorted-list trick of Li & Shi, arXiv:0710.4691), O(b n^2) for b
      buffer types and n candidate positions instead of the naive
      O(b^2 n^2). Minimizes run delay plus [dp_area_weight] per unit of
      buffer area, subject to every stage meeting the slew target.

    {!eval} dispatches on {!Cts_config.t} [insertion]. The maze probes
    one port at thousands of lengths through a {!side}, which keeps what
    depends only on the port and returns the same [eval] bit for bit. *)

type placed = { buf : Circuit.Buffer_lib.t; dist : float }
(** A buffer planted [dist] um above the port along the run. *)

type eval = {
  delay_below : float;
      (** Port latency plus all inserted stage delays — everything below
          the top of the run, excluding the still-driverless top wire. *)
  buffers : placed list;  (** Bottom-up (nearest the port first). *)
  top_free : float [@cts.unit "um"];
      (** Wire between the last fixed node (topmost buffer, or the port
          itself) and the top of the run (um). *)
  top_stub_len : float;
      (** Unbuffered length hanging at the run top: [top_free] plus the
          port stub when no buffer was inserted. *)
  top_load : float [@cts.unit "ff"];  (** Load (excl. the [top_stub_len] wire) at the top. *)
  feasible : bool;
      (** The top stub can be driven by the assumed driver within the
          slew target. *)
}

val top_margin : (float[@cts.unit "dimensionless"])
(** Fraction of a driver's single-wire span that the top (merge-side)
    unbuffered segment of a run may use: headroom for the sibling
    branch's loading at the merge node (0.7). *)

val span :
  Delaylib.t -> Cts_config.t -> drive:Circuit.Buffer_lib.t ->
  load_cap:float -> (float[@cts.unit "um"])
  [@@cts.raises "Invalid_argument"]
(** The longest wire [drive] can put in front of a load of the given
    class while meeting the slew target under the target input-slew
    assumption: {!Delaylib.max_length_for_slew} bit for bit.

    Reads the span table of ([dl], [cfg.slew_target]): every library
    buffer's span for every load class, built in one pass by
    {!build_span_table} or, when none is published yet, by this first
    lookup. A lookup scans the buffer names, computes the load class and
    reads one array cell; it counts one [Obs.Span_cache_hits], and a
    build counts one [Obs.Span_cache_misses] per cell.

    Raises [Invalid_argument] naming [drive] when it is not a buffer of
    [dl].

    Domain-safety: a table is immutable once published, so lookups from
    any domain only read it. Two domains that build the same table at
    once compute the same values; the later publish replaces the
    earlier. *)

val build_span_table : Delaylib.t -> Cts_config.t -> unit
  [@@cts.raises "Invalid_argument"]
(** Build the span table of ([dl], [cfg.slew_target]) and publish it in
    place of any table with the same key. {!Cts.synthesize} and
    {!Cts.synthesize_bisection} call it on the coordinator before their
    first pool task, so every synthesis counts exactly one build and its
    tasks only read. *)

val reset_span_cache : unit -> unit
(** Drop every published span table; the next {!span} on a key builds
    it again. A synthesis builds its own table anyway, so this only
    changes the counters of direct callers. *)

val eval :
  ?place:(cur:(float[@cts.unit "um"]) -> (float[@cts.unit "um"]) ->
          (float[@cts.unit "um"]) option) ->
  Delaylib.t -> Cts_config.t -> Port.t -> (float[@cts.unit "um"]) -> eval
  [@@cts.raises "Invalid_argument"]
(** [eval dl cfg port length] analyzes a run of [length] um with the
    engine selected by [cfg.insertion].

    [place ~cur ideal] legalizes a planned buffer position [ideal]
    (distance from the port along the run; [cur] is the previous buffer's
    position) against placement blockages: it may pull the position back
    toward [cur] (always slew-safe) or, when everything between [cur] and
    [ideal] is blocked, push it forward past the blockage; [None] means
    no legal position exists anywhere up the rest of the path. For the
    greedy engine, forced forward jumps exceeding the span budget by more
    than 15%, a [None], or a degenerate legalized position mark the run
    infeasible (the merge-node guard legalizes a buffer near the merge
    point in that case). Default: no blockages, [Some ideal].

    Under [Optimal_dp] the greedy solution is kept as an incumbent: the
    result is whichever of {!eval_greedy} and {!eval_dp} is feasible and
    cheaper under {!run_cost}, so the DP engine is never worse than
    greedy on the shared objective. [Obs.Dp_fallbacks] counts the runs
    where greedy won. *)

val eval_greedy :
  ?place:(cur:(float[@cts.unit "um"]) -> (float[@cts.unit "um"]) ->
          (float[@cts.unit "um"]) option) ->
  Delaylib.t -> Cts_config.t -> Port.t -> (float[@cts.unit "um"]) -> eval
  [@@cts.raises "Invalid_argument"]
(** The slew-driven greedy engine (see {!eval} for the [place]
    contract), regardless of [cfg.insertion]. It walks up from the port
    one buffer at a time; each step splits into a length-independent
    half (the assumed-driver span over the stub, and the buffer
    {!choose_buffer} picks with its span) and a length-dependent half
    (the top test, the planned and legalized positions, the wire above
    and the bail-outs). {!eval_chain} runs the same two halves. *)

type chain
(** A greedy prefix chain for one port: the walk of {!eval_greedy} at
    an unbounded length, where every step is a full span, recorded state
    by state up to the probe range it was built for. *)

val chain :
  Delaylib.t -> Cts_config.t -> Port.t -> max_d:(float[@cts.unit "um"]) ->
  chain
  [@@cts.raises "Invalid_argument"]
(** [chain dl cfg port ~max_d] records the walk from [port] while its
    buffers land within [max_d + 1] um — past that, no length up to
    [max_d] reaches them. Counts each recorded buffer once in
    [Obs.Run_buffers_placed] and no [Obs.Run_evals]. [max_d] only bounds
    the work: {!eval_chain} is exact at any length. *)

val eval_chain :
  Delaylib.t -> Cts_config.t -> chain -> (float[@cts.unit "um"]) -> eval
  [@@cts.raises "Invalid_argument"]
(** [eval_chain dl cfg c length] is [eval_greedy dl cfg port length]
    bit for bit, for the chain's port, without a legalizer. It advances
    through the chain states whose full step the length-dependent half
    confirms at [length] — same wire to the bit, so the next state is
    the recorded one — then finishes with the walk's own loop. Counts
    one [Obs.Run_evals] and only the buffers planted after the chain
    prefix. *)

val eval_dp :
  ?positions:(float[@cts.unit "um"]) list ->
  ?place:(cur:(float[@cts.unit "um"]) -> (float[@cts.unit "um"]) ->
          (float[@cts.unit "um"]) option) ->
  Delaylib.t -> Cts_config.t -> Port.t -> (float[@cts.unit "um"]) -> eval
  [@@cts.raises "Invalid_argument"]
(** The candidate-set DP engine, regardless of [cfg.insertion].

    Candidate buffer positions default to a uniform [cfg.dp_grid]-slot
    grid over the run, each slot legalized through [place]; [positions]
    (distances from the port, any order) overrides the grid — the
    brute-force optimality cross-check in the test suite uses it to pin
    both searches to the same discrete position set. Degenerate
    candidates (within 1 um of the port or the previous candidate, or
    within 0.5 um of the run top) are dropped, mirroring the greedy
    engine's bail-outs.

    Always returns an [eval]; the buffer-free base solution exists even
    when no buffered chain is slew-feasible, and [feasible] reports
    whether the returned top stub passes the assumed-driver check.

    Runs the same code as a {!side}'s DP over a context built for this
    one call. Counts one [Obs.Dp_evals], the candidate states and
    prunes, and adds the call's memo slots and fills to the
    [Obs.Dp_memo_slots]/[Dp_memo_filled] gauges. *)

type side
(** One maze side: a port probed at many lengths within one select. It
    holds the port's greedy {!chain} and, under [Optimal_dp], its DP
    context: the buffer types in cap order with their input caps, areas
    and load classes, the port's load class, every span the DP reads,
    and scratch tables sized from [dp_grid]. Mutable scratch, private
    to one select: never share a side across domains. *)

val side :
  Delaylib.t -> Cts_config.t -> Port.t -> max_d:(float[@cts.unit "um"]) ->
  side
  [@@cts.raises "Invalid_argument"]
(** [side dl cfg port ~max_d] — the side of [port] for lengths up to
    [max_d] (only the chain's extent depends on it; {!eval_side} is
    exact at any length). Counts the chain's buffers in
    [Obs.Run_buffers_placed] and its span lookups in
    [Obs.Span_cache_hits]; no [Obs.Run_evals]. *)

val eval_side : side -> (float[@cts.unit "um"]) -> eval
  [@@cts.raises "Invalid_argument"]
(** [eval_side s length] is [eval dl cfg port length] bit for bit, for
    the side's port, without a legalizer, with the same [Obs.Run_evals],
    [Dp_evals], [Dp_candidates], [Dp_pruned], [Dp_fallbacks] and DP memo
    gauges. The greedy result is {!eval_chain}'s; under [Optimal_dp] the
    DP runs in the side's scratch and the cheaper of the two wins, as in
    {!eval}. *)

val run_cost :
  Delaylib.t -> Cts_config.t -> eval ->
  (float[@cts.unit "ps"]) * (float[@cts.unit "dimensionless"])
(** [(cost, area)] of an [eval] under the DP objective: [delay_below]
    plus the assumed-driver wire delay over the top stub plus
    [cfg.dp_area_weight] per unit of inserted buffer area ({!
    Circuit.Buffer_lib.area_x} units); [area] is that total area. The
    optimality oracle compares engines with this — lower [(cost, area)]
    lexicographically is better. *)

val choose_buffer :
  Delaylib.t -> Cts_config.t -> stub_len:float -> load_cap:float ->
  Circuit.Buffer_lib.t * (float[@cts.unit "um"])
(** Intelligent sizing: the buffer type whose feasible span (after the
    existing unbuffered [stub_len]) best exploits the slew budget, and
    that span (um; can be non-positive when the stub alone violates).
    The smallest type within [prefer_small_within] of the longest span
    wins, the first on a tie. The pick is a fold seeded with the
    library's first buffer, so it is total. *)

val stage_delay :
  Delaylib.t -> Cts_config.t -> Circuit.Buffer_lib.t -> length:float ->
  load_cap:float -> float
(** Buffer intrinsic delay plus wire delay of one stage at the target
    input slew ({!Delaylib.stage_delay}: two surfaces, not three). *)
