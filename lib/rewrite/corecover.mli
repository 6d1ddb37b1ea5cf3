(** The CoreCover algorithm (Section 4) and its CoreCover{^ *} variant
    (Section 5).

    CoreCover finds all globally-minimal rewritings (GMRs — optimal under
    cost model M1) of a query using views:

    + minimize the query;
    + compute the view tuples [T(Q,V)] on the canonical database;
    + compute the tuple-core of each view tuple;
    + cover the query subgoals with a minimum number of tuple-cores; each
      cover yields a GMR.

    CoreCover{^ *} replaces step 4 by the enumeration of {e all}
    irredundant covers; together with the empty-core view tuples (usable as
    filtering subgoals) this search space contains an M2-optimal rewriting
    (Theorem 5.1).

    Both variants can first group views into equivalence classes and view
    tuples into same-core classes, running the cover search on one
    representative per class (Section 5.2) — the key to scalability. *)

open Vplan_cq
open Vplan_views

type stats = {
  num_views : int;
  num_view_classes : int;  (** equivalence classes of views *)
  num_view_tuples : int;  (** |T(Q,V)| over the views considered *)
  num_representative_tuples : int;  (** distinct tuple-cores (incl. empty) *)
}

(** Whether the run explored its whole search space.  [Truncated e] marks
    an {e anytime} result: a budget or result cap fired ([e] says which),
    every returned rewriting is still a sound equivalent rewriting, but
    others may exist beyond the cutoff. *)
type completeness = Complete | Truncated of Vplan_core.Vplan_error.t

type result = {
  minimized_query : Query.t;
  view_classes : View.t list list;
  view_tuples : View_tuple.t list;
  cores : (View_tuple.t * Tuple_core.t) list;
      (** representative view tuples with their cores *)
  tuple_classes : View_tuple.t list list;
      (** view tuples grouped by equal core; aligned with [cores] *)
  filters : View_tuple.t list;
      (** representative empty-core view tuples (M2 filter candidates) *)
  rewritings : Query.t list;
  covers : int list list;
      (** the cover each rewriting came from, one-to-one and in order with
          [rewritings]: indices into [cores], in body order.  Rewriting
          [i] is [Query.make_exn minimized_query.head] of the atoms of
          cover [i]'s view tuples. *)
  completeness : completeness;
      (** [Complete] unless a budget or cover cap cut the run short *)
  stats : stats;
}

(** [gmrs ~query ~views ()] runs CoreCover and returns all GMRs (up to the
    equivalence-class representative choice).

    [view_classes] is the partition of [views] the cover search runs on,
    each class's representative compiled for view-tuple matching
    ({!View_tuple.Classes.t}).  A resident {e catalog}
    ({!Vplan_service.Catalog}) builds it once and passes it on every
    call; without it each call groups [views] into equivalence classes
    itself ({!Equiv_class.group_views}).  Turning grouping off is passing
    the singleton partition, [View_tuple.Classes.of_views views]: the
    algorithm is the same, only the classes differ.  The caller must
    guarantee the classes partition exactly [views] into sets of
    equivalent views; any such partition yields the same rewritings.
    [domains] (default 1) fans the per-view matching and per-tuple core
    computation across that many domains, with the same [result].

    [budget] makes the run {e anytime}: when the deadline, step budget or
    cancellation fires, the call returns normally with every rewriting
    fully produced before the cutoff and [completeness = Truncated
    reason] instead of raising.  [max_covers] caps the number of covers
    enumerated, reported the same way.  Without either, [completeness]
    is [Complete] and the behavior is unchanged.

    @raise Vplan_error.Error with [Width_limit] if the minimized query has
    more subgoals than fit in a native-int bitmask ([Sys.int_size - 1],
    i.e. 62 on 64-bit) — an input error, raised even under a budget. *)
val gmrs :
  ?budget:Vplan_core.Budget.t ->
  ?view_classes:View_tuple.Classes.t ->
  ?max_covers:int ->
  ?domains:int ->
  query:Query.t ->
  views:View.t list ->
  unit ->
  result

(** [all_minimal]'s default [max_results]: 10_000. *)
val default_max_results : int

(** [all_minimal ~query ~views ()] runs CoreCover{^ *}: every irredundant
    cover yields a minimal rewriting; [max_results] bounds the enumeration
    ({!default_max_results} by default, reported as [Truncated (Cover_limit _)] when it
    fires).  The [filters] field lists the empty-core view tuples an
    optimizer may append as filtering subgoals under M2.  [view_classes],
    [domains], [budget] semantics and the subgoal-count guard are as in
    {!gmrs}. *)
val all_minimal :
  ?budget:Vplan_core.Budget.t ->
  ?view_classes:View_tuple.Classes.t ->
  ?domains:int ->
  ?max_results:int ->
  query:Query.t ->
  views:View.t list ->
  unit ->
  result

(** [has_rewriting ~query ~views] decides existence of an equivalent
    rewriting (the union of all tuple-cores must cover the query subgoals —
    Theorem 4.1).

    @raise Vplan_error.Error with [Width_limit] on over-wide queries, as
    in {!gmrs}. *)
val has_rewriting : query:Query.t -> views:View.t list -> bool
