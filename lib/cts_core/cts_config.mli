(** Synthesis configuration for the aggressive buffered CTS flow.

    Domain-safety: the configuration record is immutable; [validate]
    only mutates a call-local error accumulator. *)

type hstructure = H_none | H_reestimate | H_correct
(** H-structure handling (Sec. 4.1.2): off, Method 1 (re-estimation by
    edge cost), or Method 2 (route all pairings, keep the best). *)

type insertion = Greedy | Optimal_dp
(** Buffer-insertion engine for routing runs: the paper's slew-driven
    greedy walk ({!Run.eval}, Sec. 4.2.2) or the van Ginneken-style
    candidate-set dynamic program with b buffer types (Li & Shi,
    arXiv:0710.4691; {!Run.eval_dp}). Both enforce slew feasibility
    through the same {!Delaylib} tables; the DP additionally minimizes
    run delay plus an area term and therefore exercises the whole
    buffer library instead of a single cell. *)

type t = {
  slew_limit : float;
      (** Hard slew constraint verified by simulation (default 100 ps). *)
  slew_target : float;
      (** Slew budget used during synthesis, leaving a margin under the
          limit (default 80 ps, as in Sec. 5.1). *)
  topology_beta : float [@cts.unit "dimensionless"];
      (** Delay-difference weight of Eq. 4.1 (um per second — a
          mixed-dimension heuristic weight outside the units checker's
          lattice, so annotated [dimensionless] = unchecked). *)
  assumed_driver : Circuit.Buffer_lib.t;
      (** Buffer type assumed to drive a merge node before its real
          driver is known (bottom-up slew assumption of Sec. 4.2.2). *)
  hstructure : hstructure;
  prefer_small_within : float [@cts.unit "um"];
      (** Intelligent sizing: a smaller buffer is preferred when its
          feasible span is within this many um of the best span. *)
  sink_offsets : (string * float) list;
      (** Useful-skew schedule: per-sink extra arrival time (s). A sink
          listed with offset [o] is balanced toward arriving [o] later
          than the rest; unlisted sinks have offset 0. *)
  enable_balance : bool;
      (** Ablation switch: run the pre-routing balance stage. *)
  enable_binary_search : bool;
      (** Ablation switch: run the binary-search stage (off pins the
          merge point at the midpoint between the last fixed nodes). *)
  insertion : insertion;
      (** Buffer-insertion engine used for every routing run (default
          [Greedy]). *)
  dp_area_weight : float [@cts.unit "ps"];
      (** DP cost of one unit-inverter equivalent of buffer area
          (seconds per X, default 0.2e-12 = 0.2 ps/X): added per
          inserted buffer so near-delay-equivalent solutions prefer
          smaller cells — this is what makes the DP engine exercise the
          whole library instead of saturating at the largest type. Must
          be non-negative; 0 minimizes delay alone. *)
  dp_grid : int;
      (** Uniform candidate-position count per routing run for the DP
          engine (default 16; must be >= 2). Runtime is O(b n^2) in
          this n for b buffer types. *)
}

val default : Delaylib.t -> t
(** Defaults matching the paper's experimental setup: 100 ps limit, 80 ps
    synthesis target, mid-size assumed driver, H-structure handling off.
    The maze's bin counts ({!Maze.bins_for}), the merge-node stub guard's
    bounds ({!Merge_routing.merge}) and the top-segment margin
    ({!Run.top_margin}) are constants of those modules. *)

val with_hstructure : t -> hstructure -> t

val with_insertion : t -> insertion -> t

val validate : t -> string list
(** Sanity-check a configuration; each returned string names one
    problem (empty list: valid). Checks, among others, that every float
    field and every [sink_offsets] value is finite, by name (NaN and
    infinities pass every ordering test, and a NaN slew target matches
    no span table), that the slew target is positive and within the
    limit, that [topology_beta] is non-negative (a negative Eq. 4.1
    weight would reward delay imbalance) and that [prefer_small_within]
    is non-negative (below zero no buffer counts as within it of the
    best span, and sizing picks the first buffer with a NaN span).
    {!Cts.synthesize} and {!Cts.synthesize_bisection} reject invalid
    configs with [Invalid_argument]. *)
