(** Piecewise-linear voltage waveforms.

    A waveform is a sampled voltage trace [v (t)] with strictly increasing
    time points; between samples the voltage is linearly interpolated, and
    it is held constant outside the sampled window. The project simulates
    rising clock edges: generators produce 0 -> Vdd transitions and the
    measurement helpers ([slew_10_90], [crossing]) are phrased for
    monotone-on-average rising edges but work on any trace via
    first-crossing semantics.

    Domain-safety: waveforms are immutable; a {!cursor} or {!sample}
    belongs to its maker. No global state. *)

type t

val make : float array -> float array -> t
(** [make ts vs] builds a waveform. Times must be strictly increasing and
    the arrays non-empty and of equal length. *)

val n_samples : t -> int
val times : t -> float array
val values : t -> float array

val value_at : t -> float -> float
(** Linear interpolation; clamped to the end values outside the window. *)

type sample = { mutable time : float; mutable value : float }
(** In and out of {!read}: fields of an all-float record are unboxed,
    unlike floats passed to another module's function. *)

type cursor
(** {!value_at} at non-decreasing times, by a forward walk. *)

val cursor : t -> cursor

val read : cursor -> sample -> unit
(** Sets [value] to [value_at w time], bit for bit, allocating nothing.
    [time] must not decrease between reads of one cursor. *)

val t_start : t -> float
val t_end : t -> float

val crossing : t -> float -> float option
(** [crossing w v] is the time of the first upward crossing of level [v],
    linearly interpolated, or [None] if the waveform never reaches [v]. *)

val slew_10_90 : t -> vdd:float -> float option
(** 10%-90% rise time of the first 0 -> Vdd transition; [None] when the
    waveform does not span both levels. *)

val delay_50 : t -> t -> vdd:float -> float option
(** [delay_50 a b ~vdd] is the 50%-to-50% delay from waveform [a] to
    waveform [b]. *)

val shift : t -> float -> t
(** Shift in time by a constant. *)

val crop_before : t -> float -> t
(** [crop_before w t] drops samples strictly earlier than the last sample
    at or before [t]; the waveform keeps its absolute time axis. Used to
    keep staged whole-tree simulations bounded: the quiescent head of a
    deep stage's input is irrelevant. *)

val ramp : ?t0:float -> vdd:float -> slew:float -> unit -> t
(** Ideal saturated ramp rising from 0 to [vdd], whose 10%-90% rise time
    equals [slew]; starts its transition at [t0] (default 0). *)

val smooth_curve : ?t0:float -> vdd:float -> slew:float -> unit -> t
(** A smooth S-shaped (raised-cosine) edge with 10%-90% rise time [slew]:
    the "curved" input of the paper's Fig. 3.2 experiment, resembling a
    real buffer output waveform. *)

val final_value : t -> float

val is_complete_rise : t -> vdd:float -> bool
(** True when the waveform starts below 10% and ends above 90% of [vdd]. *)
