(** The server's line protocol, factored out of the binary so every
    front end — the stdio loop, the TCP server, the load generator's
    in-process fixture, and the tests — speaks exactly the same
    commands with exactly the same responses.

    A {!shared} value is the process-wide serving state: the resident
    {!Service} (catalog + rewrite cache + counters), the domain-pool
    width, and the trace-id counter.  It may be used from many domains
    at once; catalog and base-database mutations are serialized
    internally, and {!Service} itself is domain-safe.

    A {!session} is one client's view: its budget settings ([set
    timeout] and friends apply only to the connection that issued
    them) and its slow-query threshold.  The stdio loop has a single
    session; the TCP server creates one per connection.

    Commands (one request per line; [batch N] consumes N further
    lines):

    {v
    catalog load FILE | catalog add <rule>. | catalog remove NAME
    rewrite <rule>. | batch N | data load FILE | plan <rule>.
    explain <rule>. | stats [--json] | metrics
    save | health
    set timeout MS | set max-steps N | set max-covers N
    set slow-ms MS | set cost-mode exact|estimated | set off
    help | quit
    v}

    When a {!Vplan_store.Store.t} is attached, every mutation ([catalog
    add]/[catalog remove]/[data load]) is journaled — fsync included —
    {e before} it becomes visible or acked; [catalog load] and [save]
    compact into a fresh snapshot.  A store in readonly (degraded) mode
    makes mutations answer [err readonly: ...] while reads keep
    serving from memory. *)

type shared
type session

(** One response: the full text (newline-terminated lines) and whether
    the connection should close after it is delivered. *)
type reply = { text : string; close : bool }

(** [create_shared ()] — [domains] is the width of the per-request
    domain pool handed to {!Service.rewrite}/[batch]/[plan];
    [cache_capacity] bounds the rewrite cache; the budget options seed
    every new session's defaults.  [cost_mode] (default [Exact]) seeds
    every session's plan-costing mode; [set cost-mode] changes it per
    connection.  [store] attaches a durability layer (mutations journal
    before ack); a server restarting on a data directory uses {!boot}
    instead. *)
val create_shared :
  ?cache_capacity:int ->
  ?domains:int ->
  ?timeout_ms:float ->
  ?max_steps:int ->
  ?max_covers:int ->
  ?slow_ms:float ->
  ?cost_mode:Service.cost_mode ->
  ?store:Vplan_store.Store.t ->
  unit ->
  shared

(** What {!boot} recovered: the catalog's view count, the journal
    records applied and the torn tail bytes dropped. *)
type boot = { views : int; replayed : int; truncated_bytes : int }

(** [boot ~data_dir ()] — the server's start on a data directory: open
    the store in [data_dir], recover its state ({!Persist.recover}: last
    snapshot, then the journal's surviving suffix, exactly once), and
    create the shared state with the store attached, the recovery facts
    [health] reports, and the recovered catalog and base installed (the
    base only with a catalog; its statistics are rescanned when the
    snapshot's no longer apply).  An error reads ["store: ..."] when the
    directory cannot be opened and ["recovery: ..."] when its contents
    do not apply.  The other options are {!create_shared}'s. *)
val boot :
  ?cache_capacity:int ->
  ?domains:int ->
  ?timeout_ms:float ->
  ?max_steps:int ->
  ?max_covers:int ->
  ?slow_ms:float ->
  ?cost_mode:Service.cost_mode ->
  data_dir:string ->
  unit ->
  (shared * boot, string) result

val new_session : shared -> session

(** The live service, once a catalog has been loaded. *)
val service : shared -> Service.t option

(** The attached store, if the server was started with a data dir. *)
val store : shared -> Vplan_store.Store.t option

(** Install a catalog programmatically (equivalent to a successful
    [catalog load], without the file). *)
val install_catalog : shared -> Catalog.t -> unit

(** [extra_lines line] — how many further request lines [line]
    consumes beyond itself ([batch N] consumes [N]; everything else
    [0]).  This is what lets a network front end frame a complete
    request before dispatching it to a worker. *)
val extra_lines : string -> int

(** [handle_into shared session buf ~read_line line] serves one
    request, appending its reply (newline-terminated lines) to [buf],
    and returns [true] when the connection should close after the
    reply is delivered.  [read_line] supplies the extra lines of a
    multi-line request ([None] at end of input).  Never raises:
    failures become a single ["err ..."] line.  This is the one
    request path; the TCP server passes each worker's retained buffer. *)
val handle_into :
  shared ->
  session ->
  Buffer.t ->
  read_line:(unit -> string option) ->
  string ->
  bool

(** [handle_lines_into shared session buf lines] is {!handle_into} on
    the first line with the rest fed through [read_line] — the shape a
    framed network request arrives in.  The empty list appends
    nothing. *)
val handle_lines_into : shared -> session -> Buffer.t -> string list -> bool

(** {!handle_into} into a fresh buffer, as a {!reply}. *)
val handle :
  shared -> session -> read_line:(unit -> string option) -> string -> reply

(** {!handle_lines_into} into a fresh buffer, as a {!reply}. *)
val handle_lines : shared -> session -> string list -> reply

(** [contains_sub s sub] — whether [sub] occurs in [s], compared in
    place; the empty string occurs everywhere.  [recorder grep]'s
    matcher. *)
val contains_sub : string -> string -> bool
