(** Realistic characterization input waveforms.

    Section 3.2 of the paper prepends an input buffer [Binput] and a wire
    of length [Linput] to every characterization circuit so that the
    measured buffer sees a {e real buffer-output waveform} rather than an
    ideal ramp (Fig. 3.1/3.3); [Linput] is adjusted to hit each target
    input slew. This module reproduces that scheme: it bisects the input
    wire length until the waveform arriving at the measured gate has the
    requested 10%-90% slew, and returns that waveform (time-shifted to
    start at 0). 

    Domain-safety: waveform construction uses call-local arrays only. *)

val buffer_output_wave :
  ?tol:(float[@cts.unit "ps"]) -> Circuit.Tech.t -> Circuit.Buffer_lib.t -> slew:float ->
  Waveform.t
(** [buffer_output_wave tech binput ~slew] produces a waveform with the
    requested slew (within [tol], default 2 ps), shaped by [binput]
    driving a bisected-length wire into a 1 fF gate. Slews outside what
    wires of 1 to 4000 um produce saturate at the nearer end of that
    range. A bisection probe reads only its slew, so it stops at the
    gate's 90% sample ([stop_at = Some 0.9], an exact prefix of the full
    run); only the chosen length is simulated until it settles. *)

val buffer_output_waves :
  ?tol:(float[@cts.unit "ps"]) -> Circuit.Tech.t -> Circuit.Buffer_lib.t ->
  slews:float list -> Waveform.t list
(** [buffer_output_wave] for each slew in order, bit for bit, with each
    wire length probed once for the whole list (the two endpoint
    stages, and the bisection probes the slews share, since every
    bisection starts from the same bracket) and each chosen length run
    in full once. *)
