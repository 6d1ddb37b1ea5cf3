(** A concurrent TCP serving tier for the line protocol.

    One poller domain owns every socket: it accepts connections, reads
    and frames request lines, and applies admission control.  A fixed
    pool of worker domains ({!Vplan_parallel.Pool}) takes framed
    requests off a bounded MPMC queue
    ({!Vplan_parallel.Bounded_queue}), runs the handler, and writes the
    response back — connections are multiplexed onto the pool, never
    one domain per socket, so ten thousand idle clients cost ten
    thousand file descriptors and nothing else.

    {b Ordering.}  At most one request per connection is in flight at a
    time: pipelined lines wait in the connection's buffer until the
    previous response is written, so responses always come back in
    request order and per-session state needs no further locking.

    {b Admission control.}  When the request queue is full, the poller
    answers ["err busy"] immediately instead of queueing — a shed
    request costs microseconds, an unbounded queue costs every later
    client its latency.  Sheds are counted in
    [vplan_requests_shed_total].

    {b Fault containment.}  [SIGPIPE] is ignored; a client that
    disconnects mid-response kills its own connection only
    ([vplan_connection_errors_total]), and a handler exception becomes
    an ["err internal"] response.

    {b Framing.}  Responses on the wire are the handler's text
    terminated by a line containing a single ["."] — the line protocol
    has variable-length multi-line responses, and the terminator is
    what lets a client know one has ended without parsing every
    command.  Empty request lines are ignored.

    {b Reply buffers.}  Each worker domain owns one output buffer, kept
    between requests.  A request function appends its reply to that
    buffer; the worker appends the terminator in place ({!frame}) and
    writes to the socket from the buffer, 64 KiB at a time through a
    retained staging chunk, so no reply becomes a fresh string.  The
    buffer's contents are valid only until the write returns: the
    worker then empties it for its next request.  It keeps its
    capacity up to a fixed ceiling (1 MiB, the request-line cap);
    after a reply larger than that it drops back to its initial 64 KiB.

    {b Drain.}  {!stop} (async-signal-safe; wire it to [SIGTERM])
    closes the listener, lets queued and in-flight requests finish,
    then closes every connection and returns from {!run}. *)

type t

(** [create ~handler ()] builds a server; no domain is spawned until
    {!run}.

    [handler] is called once per accepted connection and returns that
    connection's request function — the closure is where per-session
    state lives.  The request function receives the worker's reply
    buffer, empty, and a complete framed request (first line plus any
    extra lines).  It appends its reply to the buffer, without the
    terminator, and returns [true] to close the connection once the
    reply is written.  It must not keep the buffer past its return.
    If it raises, whatever it appended is dropped and the reply is one
    ["err internal: ..."] line.  It runs on a worker domain, so
    anything it shares must be domain-safe.

    [extra_lines line] tells the poller how many lines beyond the
    first the request starting with [line] occupies (0 for every
    single-line command).

    [port] defaults to 0 (ephemeral — read the bound port back with
    {!port}).  [workers] is the pool width (default 2).
    [queue_capacity] bounds the request queue and is the shedding
    threshold (default 128).  [max_requests], when given, is the
    per-connection request budget: a connection that has had that many
    requests {e accepted} gets ["err request budget exhausted"] and is
    closed.

    @raise Unix.Unix_error when the listen socket cannot be bound. *)
val create :
  ?host:string ->
  ?port:int ->
  ?workers:int ->
  ?queue_capacity:int ->
  ?max_requests:int ->
  ?extra_lines:(string -> int) ->
  handler:(unit -> Buffer.t -> string list -> bool) ->
  unit ->
  t

(** [frame buf] appends the terminator line in place: [".\n"] after a
    newline-terminated or empty reply, ["\n.\n"] otherwise. *)
val frame : Buffer.t -> unit

(** A fresh reply buffer, 64 KiB: what each worker starts with, and
    what any other front end that serves the protocol from one
    retained buffer should use. *)
val reply_buffer : unit -> Buffer.t

(** [recycle buf] empties a reply buffer for its next reply, keeping its
    capacity unless the last reply passed the 1 MiB ceiling, in which
    case it drops back to the capacity it was created with. *)
val recycle : Buffer.t -> unit

(** The port actually bound (useful with [~port:0]). *)
val port : t -> int

(** Serve until {!stop}.  Blocks the calling domain (which becomes the
    poller); call from a dedicated domain to run in the background.
    Must be called at most once per {!t}. *)
val run : t -> unit

(** Begin graceful drain: stop accepting, finish queued and in-flight
    requests, close every connection, return from {!run}.  Safe to
    call from any domain and from a signal handler.  Idempotent. *)
val stop : t -> unit
