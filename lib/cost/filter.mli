(** Filtering subgoals (Section 5.1).

    A view tuple with an empty tuple-core covers no query subgoal, yet
    appending it to a rewriting can lower the M2 cost by shrinking
    intermediate relations (rewriting [P3] vs [P2] in the car-loc-part
    example).  Appending a view tuple of the query always preserves
    equivalence — its expansion is implied by the rest of the rewriting. *)

open Vplan_cq
open Vplan_views

(** [improve src ~filters body] greedily appends filter atoms while the
    optimal M2 cost under [src] decreases.  Returns the chosen body
    (original subgoals first, chosen filters appended), the optimal
    ordering and its cost.  An exact source's memo pays off doubly here:
    the trial bodies [body @ [f]] share all of [body]'s subsets, so each
    greedy round re-evaluates only the subsets containing the new filter
    atom. *)
val improve :
  ?budget:Vplan_core.Budget.t ->
  M2.source ->
  filters:View_tuple.t list ->
  Atom.t list ->
  Atom.t list * Atom.t list * float
