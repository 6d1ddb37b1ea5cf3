(** A span-based tracer with per-domain buffers and zero disabled cost.

    A trace is collected by {!run}: while it executes, every
    {!with_span} on the calling domain records a timed span into that
    domain's own buffer, and the buffers are merged into one span list
    when {!run} returns.  A session belongs to the domain that starts
    it, plus the domains it forwards its {!context} to:
    {!Vplan_parallel.Parallel.map} does so for its workers, so spans
    recorded inside a parallel fan-out attach under the span that was
    open at the spawn point.  A domain outside every session records
    nothing.  Any number of sessions may run at once on different
    domains — concurrent server workers each trace their own request —
    and none sees another's spans.  Parent links come from the
    per-domain stack of open spans.

    When no trace is running anywhere — the steady state — {!with_span}
    is a single atomic load and branch in front of the wrapped function,
    so instrumented hot paths keep their uninstrumented cost.

    Timestamps come from one process-wide wall clock read at span entry
    and exit ([Unix.gettimeofday]; the stdlib exposes no monotonic
    clock), with durations of sibling spans measured against the same
    clock — a clock step during a trace can skew spans, never crash.

    Spans are also the event type of operator profiles
    ({!Profile.finish}), so one tree walker ({!pp_forest}) and one
    Chrome exporter ({!chrome_json}) serve both. *)

type span = {
  id : int;
  parent : int;  (** span id of the parent; [-1] for top-level spans *)
  name : string;
  start_ms : float;  (** offset from the session start *)
  dur_ms : float;
  domain : int;  (** id of the domain that recorded the span *)
  kv : (string * float) list;  (** annotations, in {!annotate} order *)
}

(** Whether the calling domain is recording into a trace session. *)
val enabled : unit -> bool

(** [with_span name f] runs [f], recording a span around it when the
    calling domain is in a trace session (exceptions still record the
    span, then propagate); calls [f] directly otherwise. *)
val with_span : string -> (unit -> 'a) -> 'a

(** [annotate key value] attaches a key/value pair to the innermost open
    span on the calling domain; a no-op when tracing is disabled or no
    span is open here.  Annotating an existing key adds to its value, so
    a phase that runs in several passes reports totals. *)
val annotate : string -> float -> unit

(** A capture of (this domain's session, innermost open span) for
    handing to another domain. *)
type ctx

val context : unit -> ctx option

(** [with_context ctx f] runs [f] with the calling domain recording into
    [ctx]'s session, its top-level spans parented under [ctx]'s span.
    [with_context None f], or a context whose session has ended, is
    [f ()]. *)
val with_context : ctx option -> (unit -> 'a) -> 'a

(** [run f] collects a trace of [f] on the calling domain: returns
    [f ()] and the finished spans, sorted by start time.  Spans still
    open when [f] raises are lost; the session always ends.  A [run]
    nested inside the session covering this domain contributes its spans
    to that session and returns an empty list. *)
val run : (unit -> 'a) -> 'a * span list

(** Sum of the durations of top-level spans — the traced portion of the
    request, to compare against its measured latency. *)
val top_level_total : span list -> float

(** Render the spans as an ASCII tree (one line per span: name,
    duration, annotations), children indented under their parents. *)
val pp_tree : Format.formatter -> span list -> unit

(** [pp_forest line ppf ~parent spans] walks the descendants of span
    [parent] ([-1]: the top-level spans) in preorder, calling [line ppf
    indent s] for each, where [indent] is the ASCII-tree prefix of its
    line.  {!pp_tree} and {!Profile.pp_tree} are its two line formats. *)
val pp_forest :
  (Format.formatter -> string -> span -> unit) ->
  Format.formatter ->
  parent:int ->
  span list ->
  unit

(** Escape a string for embedding in a JSON string literal. *)
val json_escape : string -> string

(** [chrome_json spans] serializes the spans as a Chrome [trace.json]
    document ([{"traceEvents": [...]}], ["ph":"X"] complete events,
    microsecond timestamps), loadable in chrome://tracing or Perfetto;
    span annotations become event [args] (non-finite values clamped to
    keep the output valid JSON) and the recording domain becomes the
    [tid]. *)
val chrome_json : span list -> string
