(** Fault injection points.

    A failpoint is a named site in the code — typically an I/O boundary
    of the durability layer — where a test can make the process
    misbehave on purpose: die as if [kill -9]'d, write only a prefix of
    the bytes it meant to write, or fail with an I/O error such as
    ENOSPC.  The crash-matrix tests drive one child process per
    (site, occurrence) pair and then assert that recovery restores
    exactly the acked prefix.

    Cost when disarmed is one atomic load per {!hit} — the registry is
    compiled out of the hot path in the sense that matters: no
    allocation, no lock, no string hashing unless at least one
    failpoint is armed anywhere in the process.

    Activation is either programmatic ({!arm}) or, for child processes
    spawned by tests, via the [VPLAN_FAILPOINTS] environment variable
    parsed by {!init_from_env}:

    {v
      VPLAN_FAILPOINTS="store.journal.append.before_fsync=crash@3"
      VPLAN_FAILPOINTS="store.journal.append=enospc,store.save=crash"
      VPLAN_FAILPOINTS="store.journal.append.write=torn:5@2"
    v}

    [@N] makes the action fire on the N-th hit of the site (1-based;
    default 1).  Once fired, an action keeps firing on every later hit —
    a disk that ran out of space stays full. *)

type action =
  | Crash  (** terminate immediately, no flushing — simulates [kill -9] *)
  | Io_error of string
      (** surface as an I/O failure with this message (e.g. ["ENOSPC"]) *)
  | Torn of int
      (** truncate the write to this many bytes, then crash — a torn
          write that never finished *)

(** [arm name ?after action] arms [name] to fire [action] on the
    [after]-th hit (1-based, default 1) and on every hit thereafter. *)
val arm : ?after:int -> string -> action -> unit

(** Disarm everything. *)
val reset : unit -> unit

(** [hit name] is the action to perform now at site [name], or [None].
    [Crash] never returns: the process exits with status 137 without
    running [at_exit] handlers.  [Torn] is returned to the caller, which
    performs the partial write and then calls {!crash}. *)
val hit : string -> action option

(** [crash ()] exits immediately with status 137 (the [kill -9] status),
    bypassing [at_exit] — nothing buffered is flushed. *)
val crash : unit -> 'a

(** Parse [VPLAN_FAILPOINTS] (comma-separated [name=action[@N]] items;
    actions: [crash], [enospc], [io:MSG], [torn:BYTES]) and arm each
    entry.  Unknown or malformed items are ignored: a test that
    misspells an action sees the failure as "nothing fired", never as a
    crashed production path.  Called by binaries at startup. *)
val init_from_env : unit -> unit
