(** Experiment drivers — one per table/figure of the paper (see the
    experiment index in DESIGN.md).

    Every driver returns a rendered plain-text report; structured
    accessors are provided where tests assert on shapes (who wins, by
    how much, ordering) rather than on text. *)

type env = {
  tech : Circuit.Tech.t;
  lib : Circuit.Buffer_lib.t list;
  dl : Delaylib.t;
  scale : float;  (** Benchmark scale factor in (0, 1]. *)
  sim_config : Spice_sim.Transient.config;
}

val make_env : ?profile:Delaylib.profile -> ?scale:float -> unit -> env
(** Build the shared experiment environment. The delay library is loaded
    from {!Delaylib.cache_file} of the profile or characterized and
    saved there. [scale] scales benchmark sink counts/die sizes for
    quick runs (default 1). *)

(** {1 Experiments} *)

val all : (string * (env -> string)) list
(** Every experiment driver, keyed by id; each returns its rendered
    table.
    - ["fig1.1"]: wire output slew vs. length for 20X and 30X drivers
      (Fig. 1.1): buffer sizing alone cannot control slew.
    - ["fig3.2"]: curve vs. ramp input of identical slew (Fig. 3.2).
    - ["fig3.4"]: fitted buffer intrinsic-delay surface (Fig. 3.4).
    - ["fig3.6"]: fitted branch wire-delay surfaces (Figs. 3.6/3.7).
    - ["model-acc"]: Sec. 3.1 reproduction: Elmore / higher-moment
      metrics vs. library vs. simulator.
    - ["tab5.1"]: GSRC results incl. the merge-node-only baseline
      (Table 5.1); ["tab5.2"]: ISPD results (Table 5.2).
    - ["tab5.3"]: H-structure re-estimation/correction study
      (Table 5.3).
    - ["abl-sizing"]: intelligent look-ahead buffer sizing vs. a fixed
      smallest type; ["abl-balance"]: balance and binary-search stages
      switched off individually; ["abl-slew"]: slew-limit sweep, how
      many buffers a tighter constraint costs; ["abl-topology"]:
      dynamic levelized topology generation vs. a fixed
      recursive-bisection topology ({!Cts.synthesize_bisection}).
    - Extensions beyond the paper: ["ext-corners"], process-corner
      robustness (trees synthesized at nominal re-simulated at
      slow/fast transistor and +-10% RC corners); ["ext-power"],
      capacitance breakdown and dynamic power at 1 GHz vs. the
      merge-node-only baseline; ["ext-blockage"], blockage-aware buffer
      legalization (ISPD'09 macros that wires may cross but buffers must
      avoid); ["ext-useful-skew"], a subset of sinks targeted 50 ps
      late; ["ext-bst"], bounded-skew DME wirelength vs. skew bound
      (ref [4]). *)

val select :
  string list -> ((string * (env -> string)) list, string) result
(** [select names] is the drivers of [names] in {!all} order, each
    once; every driver for [[]]. [Error msg] names the first unknown id
    and lists the known ones. *)

val fig1_1_rows : env -> (float * float * float) list
(** [(length, slew20x, slew30x)] data behind ["fig1.1"]. *)

val fig3_2_shift : env -> float
(** The output shift (s) between equal-slew curve and ramp inputs
    behind ["fig3.2"]; the paper reports 32 ps. *)

type cts_row = {
  bench : string;
  n_sinks : int;
  worst_slew : float;
  skew : float;
  latency : float;
  wirelength : float;
  n_buffers : int;
  baseline_skew : float option;  (** Merge-node-only buffered DME. *)
  baseline_slew : float option;
  runtime : float;  (** Synthesis wall time (s). *)
}

val run_gsrc_row : env -> ?baseline:bool -> Bmark.Synthetic.descriptor -> cts_row
(** One row of ["tab5.1"]: synthesize a GSRC-style benchmark (and, with
    [baseline], the merge-node-only DME baseline) and simulate it. *)
