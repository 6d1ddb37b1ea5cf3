(** The durability layer: one directory holding a snapshot and a
    write-ahead journal, with an explicit degraded mode.

    Layout of a data directory:
    - [snapshot.vps] — the last-good snapshot ({!Snapshot}), replaced
      atomically by {!save}
    - [journal.vpj] — mutations since that snapshot ({!Journal}),
      fsynced by {!append} before the server acks, truncated by
      {!save}

    The correctness claim, exercised by the crash-matrix tests: kill
    the process at {e any} instruction, reopen the directory, and the
    recovered state is the last snapshot plus a prefix of the journal
    that contains every acked mutation — nothing acked is lost, and
    nothing torn is replayed.

    Write failures at runtime (ENOSPC, I/O errors, armed failpoints) do
    not kill the process: the store flips to {!Readonly}, the
    [vplan_store_degraded] gauge goes to 1, subsequent {!append}/{!save}
    calls return [Error _] (the protocol layer answers [err readonly]),
    and reads keep serving from memory. *)

type mode =
  | Durable  (** journal writable; mutations are persisted before ack *)
  | Readonly
      (** a write failed; mutations are refused, reads keep serving *)

type recovery = {
  r_snapshot : Snapshot.t option;
  r_replayed : (int * Record.op) list;
      (** journal records past the snapshot's sequence number, in order *)
  r_journal_records : int;  (** valid records found in the journal file *)
  r_truncated_bytes : int;  (** torn tail bytes dropped from the journal *)
  r_snapshot_age_s : float;  (** seconds since the snapshot was written; 0 if none *)
}

type t

(** [open_dir dir] creates [dir] if needed, loads the last-good
    snapshot, scans the journal (truncating a torn tail in place), and
    opens the journal for appending.  The caller applies
    [recovery.r_replayed] to the snapshot state. *)
val open_dir : string -> (t * recovery, string) result

val mode : t -> mode

(** Sequence number of the last record written (or recovered); the next
    {!append} uses this plus one. *)
val last_seq : t -> int

(** Journal size in bytes and records appended since the snapshot. *)
val journal_bytes : t -> int

val journal_records : t -> int

(** Seconds since the snapshot file was last written, from a fresh
    [stat]; [None] when no snapshot exists yet. *)
val snapshot_age_s : t -> float option

(** [append t op] journals one mutation, fsync included.  [Ok ()] means
    the op is durable and may be acked.  [Error _] means it is not (and
    the store is now {!Readonly} if the failure was an I/O error). *)
val append : t -> Record.op -> (unit, string) result

(** [save t snapshot] writes the snapshot atomically (its [seq] is
    overridden with {!last_seq}) and then truncates the journal.  A
    crash between the two is safe: replay skips records the snapshot
    already includes. *)
val save : t -> Snapshot.t -> (unit, string) result

(** The reason the store went readonly, when it did. *)
val degraded_reason : t -> string option

(** Flush and close the journal fd.  Further appends fail. *)
val close : t -> unit
