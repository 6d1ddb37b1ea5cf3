(** Pipeline-phase instrumentation: {!phase} is what CoreCover's stages
    (and plan selection) wrap themselves in.

    [phase name f] runs [f], observing its wall time into the
    [vplan_phase_<name>_ms] histogram of {!Metrics} unconditionally, and
    opening a {!Trace} span named [name] when a trace is active.
    Exceptions still record both, then propagate. *)

val phase : string -> (unit -> 'a) -> 'a
