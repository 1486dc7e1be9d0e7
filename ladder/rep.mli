(** One timed rep: set up, synthesize, sign off, check. *)

val tech : Circuit.Tech.t
val library : Circuit.Buffer_lib.t list

val now : unit -> float
val timed : (unit -> 'a) -> 'a * float

val characterize : profile:Delaylib.profile -> Parallel.t -> Delaylib.t
(** In-process characterization of {!library} on {!tech}. *)

val digest : Ctree.t -> string
(** Hex MD5 of the tree's SPICE netlist. *)

val failure :
  Cts_config.t -> Ctree.t -> Ctree_check.violation list -> Ctree_sim.metrics ->
  string option
(** Why a synthesized tree fails signoff: invariant violations,
    structural errors, a simulated slew over the limit, or an unsettled
    simulation. [None] when it passes. *)

val peak_rss_mb : unit -> float
(** Peak resident set of this process so far (VmHWM). *)

val with_pool : (Parallel.t -> 'a) -> 'a
(** Run with a fresh single-domain pool, shut down afterwards. *)

val measure :
  pool:Parallel.t -> Delaylib.t -> Cts_config.t -> Sinks.spec list -> Metric.rep
(** Run {!Cts.synthesize} once on [pool], sign the tree off and return
    the end-to-end metrics other than [setup_s]. Every exception and
    failed check becomes an [Error]. *)

val run : profile:Delaylib.profile -> Workload.t -> seed:int -> Metric.rep
(** One timed rep: set up (pool, characterization, instance), then
    {!measure} with the rung's configuration; [setup_s] leads the
    metrics. *)
