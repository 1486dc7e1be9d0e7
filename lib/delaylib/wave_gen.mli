(** Realistic characterization input waveforms.

    Section 3.2 of the paper prepends an input buffer [Binput] and a wire
    of length [Linput] to every characterization circuit so that the
    measured buffer sees a {e real buffer-output waveform} rather than an
    ideal ramp (Fig. 3.1/3.3); [Linput] is adjusted to hit each target
    input slew. This module reproduces that scheme: it bisects the input
    wire length until the waveform arriving at the measured gate has the
    requested 10%-90% slew, and returns that waveform (time-shifted to
    start at 0). Its stages run at characterization's 1 ps step.

    Domain-safety: waveform construction uses call-local arrays only. *)

val char_config : Spice_sim.Transient.config
(** Characterization's transient config, for {!Delaylib}'s runs and the
    bisection probes below: [Transient.default_config] at a 1 ps step,
    half of signoff's, that stops at the 90% sample ([stop_at = Some
    0.9]). At 2 ps the 10%-90% crossings of the fastest loads
    interpolate up to 1.5 ps off (DESIGN.md 5y). Characterization reads
    only first crossings at 10, 50 and 90% Vdd, and a [stop_at] run is a
    prefix of the full run, bit for bit, so it holds them all
    (DESIGN.md 5s). *)

val buffer_output_waves :
  Circuit.Tech.t -> Circuit.Buffer_lib.t -> slews:float list -> Waveform.t list
(** [buffer_output_waves tech binput ~slews] is, for each slew in order,
    a waveform with that 10%-90% slew (within 2 ps), shaped by [binput]
    driving a bisected-length wire into a 1 fF gate. Slews outside what
    wires of 1 to 4000 um produce saturate at the nearer end of that
    range. A bisection probe reads only its slew, so it runs under
    {!char_config}; each wire length is probed once for the whole list
    (the two endpoint stages, and the probes the slews share, since every
    bisection starts from the same bracket). Each chosen length runs once
    under {!char_config} without its stop, until it settles. A slew's
    wave is the same, bit for bit, whatever list it is in. *)
