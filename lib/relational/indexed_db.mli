(** Indexed conjunctive-query evaluation.

    An {!t} is an interned, array-stored image of a {!Database.t} together
    with a cache of hash indexes.  Constants are interned to dense integer
    ids and tuples stored as int arrays; an index for a
    [(predicate, bound-position mask)] pair maps the projection of a tuple
    onto the bound positions to the matching tuple numbers.  Indexes are
    built lazily on first use and cached for the lifetime of the value, so
    evaluating many query bodies against the same database (CoreCover
    evaluates every view against one canonical database) pays each index
    once.

    {!answers} schedules atoms selectivity-first (most bound arguments,
    then smallest relation), probes the per-atom index instead of scanning,
    and defers deduplication to projection time.  It computes exactly the
    same relation as the hash-join engine's [Exec.answers] — set
    semantics make the two engines indistinguishable except for speed.

    Index construction is mutex-guarded: a single [t] may be shared by the
    parallel per-view fan-out ({!Vplan_parallel.Parallel}). *)

open Vplan_cq

type t

(** [of_database db] interns [db].  Cost: one pass over the database; no
    index is built yet. *)
val of_database : Database.t -> t

(** The database this value was built from. *)
val database : t -> Database.t

(** [answers t q] computes the answer relation of [q] (distinct head
    tuples), equal to [Exec.answers] over the same database. *)
val answers : t -> Query.t -> Relation.t
