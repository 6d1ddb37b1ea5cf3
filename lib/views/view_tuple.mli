(** View tuples [T(Q,V)] (Section 3.3).

    A view tuple is an atom over a view predicate whose arguments are
    variables and constants of the query, obtained by applying the view
    definitions to the canonical database of [Q] and thawing the result.
    Lemma 3.2: every rewriting can be transformed into one, at least as
    contained, that uses view tuples only — so view tuples are the
    building blocks of all the search spaces in the paper. *)

open Vplan_cq

type t = {
  atom : Atom.t;  (** the view tuple itself, e.g. [v1(M, a, C)] *)
  view : View.t;  (** the defining view *)
}

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

(** [compute ~query views] computes [T(Q,V)].  The query should normally
    be minimized first (CoreCover step 1).

    Only views whose body predicates all occur in the query are
    evaluated: any other view has no tuple over the canonical database.
    On the 272 representative star views of the end-to-end catalog,
    50.9 per query pass the filter.  The output order is unchanged.

    The views are evaluated over the canonical database by
    {!Vplan_relational.Indexed_db}, which interns it once and probes
    lazily built hash indexes; it yields the same tuples, in the same
    order, as the backtracking oracle {!Vplan_relational.Eval}.  View
    tuples do not run on the hash-join kernel ({!Vplan_exec.Exec}): a
    canonical database holds one tuple per query subgoal, so per-query
    setup dominates, and [Exec] measured 2.2–2.4x slower than
    [Indexed_db] per query (0.74–0.94 ms against 0.31–0.48 ms over 219
    star queries × 272 representative views, best of 5, 2-vCPU VM).
    [Eval] was 0.72–1.92x [Indexed_db]'s time across 24 shape × size
    configurations, slowest on clique, random and single-relation
    chains.

    [domains] (default 1) fans the per-view evaluation out across that
    many domains ({!Vplan_parallel.Parallel.map}); the result is
    independent of the worker count.

    A [?budget] is ticked once per evaluated view (in whichever domain
    evaluates it) and shared with the fan-out's exception barrier, so a
    deadline or cancellation stops all workers within one view
    evaluation. *)
val compute :
  ?budget:Vplan_core.Budget.t ->
  ?domains:int ->
  query:Query.t ->
  View.t list ->
  t list
