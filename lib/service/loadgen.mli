(** Load generation for the TCP serving tier.

    {!run} drives N concurrent client connections from a single domain
    with a [select] event loop, so hundreds of clients cost hundreds of
    sockets, not hundreds of domains.  The loop is closed: each
    connection keeps exactly one request in flight — the classic
    fixed-concurrency benchmark, where measured throughput is
    [clients / latency].

    Responses are framed by the server's lone-["."] terminator line and
    classified by their first line: [ok ...] (a cache-hit attribution
    [" hit "] is counted separately), [err busy] (shed by admission
    control), or any other [err ...].  Latency percentiles
    ({!Vplan_obs.Metrics.percentile}, nearest rank) are computed over
    successful ([ok]) responses only — shed responses are deliberately
    fast and would flatter the tail. *)

type result = {
  clients : int;
  sent : int;  (** distinct requests written (resends not included) *)
  completed : int;  (** responses fully received *)
  ok : int;
  hits : int;  (** [ok] responses attributed to the rewrite cache *)
  shed : int;
      (** requests given up as [err busy] — retries exhausted, retry
          window closed, or retrying disabled *)
  retried : int;  (** resends performed after an [err busy] *)
  errors : int;  (** other [err] responses *)
  closed_early : int;  (** connections that died before the run ended *)
  elapsed_ms : float;
  qps : float;  (** [ok] responses per second of elapsed wall time *)
  p50_ms : float;
  p99_ms : float;
  max_ms : float;
}

(** [run ~port ~clients ~duration_ms ~request ()] — [request ~client
    ~seq] renders the request line for connection [client]'s [seq]-th
    send (without the newline; it must be a single-line command).
    After [duration_ms] no new requests are sent; up to 2 s more is
    then allowed for stragglers.

    [retries] (default 0: off) resends a request shed with [err busy]
    up to that many times, after an exponential backoff with full
    jitter (attempt [k] waits uniformly in [0, backoff_ms * 2^k];
    [backoff_ms] defaults to 5).  Resends are counted in [retried], not
    [sent]; only a request whose retries are exhausted — or abandoned
    at the deadline — counts as [shed], so shed rates stay honest. *)
val run :
  ?host:string ->
  port:int ->
  clients:int ->
  ?retries:int ->
  ?backoff_ms:float ->
  duration_ms:float ->
  request:(client:int -> seq:int -> string) ->
  unit ->
  result

(** A plain blocking client for scripting one connection: control
    requests during a bench, assertions in tests. *)
module Client : sig
  type t

  val connect : ?host:string -> port:int -> unit -> t

  (** [request t line] sends [line] (or several lines, for [batch])
      and returns the response lines, terminator excluded.
      @raise Failure on timeout (10s), closed connection, or if the
      connection already saw EOF. *)
  val request : t -> string -> string list

  (** [send t line] writes without awaiting a response (for pipelining
      experiments); pair with {!drain}. *)
  val send : t -> string -> unit

  (** [drain t n] reads [n] responses, returning each one's lines. *)
  val drain : t -> int -> string list list

  val close : t -> unit
end
