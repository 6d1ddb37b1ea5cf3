(** A process-global metrics registry: counters, gauges, and fixed-bucket
    latency histograms, all lock-free to update.

    Handles are obtained by name ({!counter}, {!gauge}, {!histogram});
    the same name always returns the same underlying metric, so modules
    register their metrics once at initialization and increment plain
    handles afterwards.  Every sample lands in an [Atomic.t], so
    counters and histograms may be bumped concurrently from any domain —
    in particular from {!Vplan_parallel.Parallel.map} workers — without
    locks; only registration itself takes the (rarely contended)
    registry mutex.

    Naming scheme (see DESIGN.md §12): [vplan_<subsystem>_<what>_total]
    for counters, [vplan_<subsystem>_<what>] for gauges and
    [vplan_<what>_ms] for latency histograms. *)

type counter
type gauge
type histogram

(** [counter name] — the counter registered under [name], creating it at
    zero on first use.  [help] sets the family's [# HELP] text in
    {!dump} (first registration to supply one wins; families without one
    get a default derived from the name).
    @raise Invalid_argument if [name] is already registered as a
    different metric type. *)
val counter : ?help:string -> string -> counter

val gauge : ?help:string -> string -> gauge
val histogram : ?help:string -> string -> histogram

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

(** [set g v] — gauges are set, not accumulated. *)
val set : gauge -> int -> unit

(** [observe h ms] records one latency sample, in milliseconds.
    Negative and NaN samples are clamped to [0.]. *)
val observe : histogram -> float -> unit

type summary = {
  count : int;
  sum_ms : float;
  p50_ms : float;  (** upper bound of the bucket holding the median *)
  p90_ms : float;
  p99_ms : float;  (** [infinity] when the rank falls in the overflow bucket *)
}

(** Bucketed quantile readout: each percentile reports the upper bound
    of the first bucket whose cumulative count reaches the rank
    [ceil (q * count)] — an overestimate by at most one bucket width. *)
val summary : histogram -> summary

(** [percentile sorted p] — the nearest-rank [p]-quantile ([p] in
    [(0, 1]]) of samples sorted ascending: the sample at rank
    [ceil (p * n)].  [0.] when there are no samples. *)
val percentile : float array -> float -> float

(** Upper bucket bounds in milliseconds, ascending; samples above the
    last bound land in an implicit overflow bucket. *)
val bucket_bounds : float array

(** [bucket_index v] — the bucket a sample of [v] ms lands in: the first
    index with [v <= bucket_bounds.(i)] (Prometheus [le] semantics), or
    [Array.length bucket_bounds] for the overflow bucket. *)
val bucket_index : float -> int

(** Emit every registered metric in Prometheus text exposition format:
    [# HELP]/[# TYPE] lines per family, [name value] for counters and
    gauges, and cumulative [name_bucket{le="..."}] series ending in
    [+Inf] plus [name_sum] (milliseconds, matching the [_ms] naming) and
    [name_count] for histograms.  Families appear in registration
    order. *)
val dump : Format.formatter -> unit
