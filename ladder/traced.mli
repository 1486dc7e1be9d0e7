(** The traced run: per-layer counters, spans and per-call costs for one
    rung. It runs apart from the timed reps, which keep [Obs] off. *)

type t = {
  rep : Metric.rep;
      (** The per-layer metrics and the tree's netlist MD5, or why the
          tree failed signoff or the replayed loop differed from
          {!Cts.synthesize}. *)
  snapshot : Obs.snapshot;  (** Every span, for a Chrome trace. *)
}

val run : profile:Delaylib.profile -> Workload.t -> seed:int -> t
(** Set up as a timed rep does, then:
    + synthesize once untraced (the overhead baseline, GC words and
      peak RSS) and once with [Obs] on, for counters and gauges;
    + replay the level loop ({!Replay.synthesize}) for layer spans and
      check it is bit-identical to step 1;
    + time [Timing.analyze_tree], [Cts.verify_tree] and the transient
      simulation on step 1's tree;
    + time 10{^5} calls each of [Delaylib.eval_single] and [Run.eval]. *)
