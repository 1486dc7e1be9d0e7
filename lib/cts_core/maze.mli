(** Merge-location search (Sec. 4.2.2, Fig. 4.3).

    The paper expands both subtree roots bi-directionally over an
    R = 45 grid and picks the bin of minimum delay difference. Here the
    scan ignores blockages (buffers are legalized afterwards), so a bin
    is priced only through its two manhattan distances (d1, d2), and
    inside the port box d1 + d2 = D. [select] therefore searches the
    split directly: h(t) is side 1's delay at t·D minus side 2's at
    (1 − t)·D, scanned at 33 points and bisected to 0.01 um inside every
    bracket: every sign change of h, since h need not be monotone under
    [Optimal_dp], and every change of feasibility between neighbouring
    probes, whose edge can hold the best feasible point (the bisection
    probes count in [Obs.Maze_bins_evaluated] like the scan's). Points
    rank feasible first, then lower skew outside a
    0.05 ps tie window, then shorter wire. When the direct family leaves
    more than 0.5 ps of skew or no feasible point, a detour family is
    searched the same way: the merge point moves up to two {!bins_for}
    pitches beyond the slower side's port.

    Domain-safety: the two {!Run.side}s and the best-so-far record are
    private to one select; nothing is shared across tasks or domains. *)

type choice = {
  bin_center : Geometry.Point.t;
      (** The merge point: on the port-to-port segment, or beyond a port
          for a detour. *)
  d1 : float [@cts.unit "um"];
      (** Manhattan distance from port 1 to [bin_center] (um). *)
  d2 : float [@cts.unit "um"];
  eval1 : Run.eval;  (** Side 1's run at [d1]. *)
  eval2 : Run.eval;
  est_skew : float;  (** |delay1 - delay2| including top-wire estimates. *)
}

val bins_for : (float[@cts.unit "um"]) -> int
(** Grid bins per dimension for a net spanning the given distance (um):
    the paper's 45, grown toward a 60 um pitch on long nets, capped at
    181. The span over this count is the detour pitch; nothing else
    reads it. *)

val side_delay :
  Delaylib.t -> Cts_config.t -> Run.eval -> (float[@cts.unit "um"]) ->
  (float[@cts.unit "ps"])
(** [side_delay dl cfg e top_wire] — delay of one side through its top
    wire of the given length, under the assumed-driver model (driver
    intrinsic delay excluded; it is common to both sides). *)

val select : Delaylib.t -> Cts_config.t -> Port.t -> Port.t -> choice
  [@@cts.raises "Invalid_argument"]
(** The best merge point. Each probed split point counts one
    [Obs.Maze_bins_evaluated] and evaluates both sides through
    {!Run.eval_side} (bit for bit {!Run.eval}); the winner's evals are
    returned as probed. About 95 evaluations per select. *)
