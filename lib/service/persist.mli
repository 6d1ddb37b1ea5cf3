(** Glue between the durability layer ({!Vplan_store}) and the service
    semantics: a {!Vplan_store.Snapshot.t} is syntax (rule texts, fact
    tuples, class index lists), a {!Catalog.t} is preprocessed meaning.

    The conversions here define the recovery invariant end to end:
    [state_of_snapshot (snapshot_of cat)] reproduces the catalog —
    same views, same generation, same equivalence-class partition —
    without re-running the grouping, and {!replay} replays journal
    records exactly as the live mutations ran. *)

open Vplan_views
module Database = Vplan_relational.Database
module Snapshot = Vplan_store.Snapshot
module Record = Vplan_store.Record

(** [snapshot_of ?base ?stats cat] renders the catalog (and base
    database and its load-time statistics, when loaded) into snapshot
    parts.  The [seq] field is 0; {!Vplan_store.Store.save} overrides
    it. *)
val snapshot_of :
  ?base:Database.t -> ?stats:Vplan_stats.Stats.t -> Catalog.t -> Snapshot.t

(** [state_of_snapshot s] parses the rule texts back and {!Catalog.restore}s
    the stored partition.  Statistics ride along verbatim — they are
    only meaningful for the snapshot's own base database, so a caller
    that replays a later [Load_data] must discard them. *)
val state_of_snapshot :
  Snapshot.t ->
  ( Catalog.t * Database.t option * Vplan_stats.Stats.t option,
    string )
  result

(** [view_of_text text] parses one journaled rule text. *)
val view_of_text : string -> (View.t, string) result

(** [render_view v] is the parseable rule text journaled for [v]. *)
val render_view : View.t -> string

(** [replay state ops] replays a recovered journal, each record exactly
    as the live mutation ran ([Add_view] onto an absent catalog
    bootstraps a fresh one, as the live [catalog add] does),
    batching consecutive [Add_view] records into one incremental
    grouping pass (generations advance once per batch).  Returns the
    final state and the number of records applied. *)
val replay :
  Catalog.t option * Database.t option ->
  (int * Record.op) list ->
  (Catalog.t option * Database.t option * int, string) result

(** [recover r] — the state a store's recovery describes: its snapshot
    restored ({!state_of_snapshot}), then its journal suffix replayed
    ({!replay}).  The snapshot's statistics come back only if no
    replayed [Load_data] replaced the base they describe. *)
val recover :
  Vplan_store.Store.recovery ->
  (Catalog.t option * Database.t option * Vplan_stats.Stats.t option, string) result
