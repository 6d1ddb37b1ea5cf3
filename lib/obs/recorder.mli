(** The flight recorder: a fixed-size lock-free ring buffer of recent
    request records, written by every worker domain and dumped on
    demand (`recorder dump` on the server).

    A record is immutable once built; {!append} claims a sequence number
    with one [fetch_and_add] and publishes the record with one atomic
    store into its slot, so concurrent writers can never tear a record —
    a reader sees a whole record or the slot's previous occupant.  The
    ring keeps the last {!capacity} records; older ones are overwritten.

    Slow requests retain their span tree, and analyzed ones their
    operator profile, in the record: both are {!Trace.span} lists, which
    `trace dump <id>` exports as one Chrome trace.  This replaces the old
    one-line stderr slow log, which survives as {!log_line}: a shared
    sink that writes one whole line per call instead of the torn
    interleavings of per-domain [Format.eprintf]. *)

type record = {
  seq : int;  (** monotonically increasing append order *)
  ts_ms : float;  (** wall-clock milliseconds at append *)
  trace : int;  (** request trace id; [-1] = none *)
  kind : string;  (** request kind: [rewrite], [plan], [analyze], [shed], ... *)
  latency_ms : float;
  source : string;  (** cache [hit]/[miss], [""] = n/a *)
  mode : string;  (** cost mode in effect, [""] = n/a *)
  classification : string;  (** body classification, [""] = n/a *)
  qerror : float;  (** per-query q-error; [nan] = not measured *)
  answers : int;  (** answer count; [-1] = n/a *)
  truncated : string;  (** truncation/shed reason, [""] = complete *)
  slow : bool;  (** crossed the slow-query threshold *)
  detail : string;  (** free-form context, e.g. the query head *)
  spans : Trace.span list;  (** retained span tree (slow/analyzed only) *)
  profile : Trace.span list;  (** retained operator profile; [[]] = none *)
}

(** Ring size: how many recent records a dump can return. *)
val capacity : int

(** The recorder is on by default; turning it off makes {!append} a
    no-op (one atomic load) — the bench's overhead baseline. *)
val set_enabled : bool -> unit

(** Append one record.  Lock-free; safe from any domain. *)
val append :
  ?trace:int ->
  ?latency_ms:float ->
  ?source:string ->
  ?mode:string ->
  ?classification:string ->
  ?qerror:float ->
  ?answers:int ->
  ?truncated:string ->
  ?slow:bool ->
  ?detail:string ->
  ?spans:Trace.span list ->
  ?profile:Trace.span list ->
  kind:string ->
  unit ->
  unit

(** Records currently in the ring, oldest first. *)
val dump : unit -> record list

(** Most recent record carrying the given trace id. *)
val find_trace : int -> record option

(** One record as a single text line (deterministic field order; spans
    and profile appear as counts). *)
val render : record -> string

(** One record as a single JSON object (spans/profile as counts). *)
val to_json : record -> string

(** Empty the ring and re-enable it.  For tests and benchmarks. *)
val reset : unit -> unit

(** [log_line s] writes [s] plus a newline to stderr as one whole line:
    the shared sink for operational one-liners (slow-query log), safe
    against interleaving across domains. *)
val log_line : string -> unit
