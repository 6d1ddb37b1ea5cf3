(** Conjunctive queries with built-in comparison predicates (Section 8).

    Comparisons are written as ordinary subgoals with the reserved
    predicates [le], [lt] and [eq] (arity 2), e.g.

    {v v1(A, B, C, D) :- p(A, B), r(C, D), le(C, D). v}

    The Datalog parser needs no changes, and {!Vplan_views.Expansion}
    already passes non-view predicates through, so views with comparisons
    expand correctly.  This module supplies what changes: safety
    (comparison variables must be range-restricted by ordinary subgoals),
    evaluation (comparisons filter), satisfiability, and a {e sound}
    containment test — a homomorphism on the ordinary subgoals under
    which the container's comparisons are implied by the containee's.
    Containment of CQs with comparisons is Π{_2}{^p}-complete in general;
    the sound test can miss containments that require case analysis over
    variable orderings, and the documentation of each entry point says
    so. *)

open Vplan_cq
open Vplan_relational

(** [split q] separates ordinary subgoals from comparison constraints. *)
val split : Query.t -> Atom.t list * Order_constraint.constr list

(** [validate q] checks range-restriction: every variable of a comparison
    must occur in an ordinary subgoal. *)
val validate : Query.t -> (unit, string) result

(** [is_satisfiable q] — the comparison part admits a solution. *)
val is_satisfiable : Query.t -> bool

(** [answers db q] evaluates the ordinary part with the hash-join
    engine, filters its bindings by the comparisons and projects them
    onto the head.  Raises [Invalid_argument] on a non-range-restricted
    query. *)
val answers : Database.t -> Query.t -> Relation.t

(** [is_contained q1 q2] — {e sound, incomplete}: [true] guarantees
    [q1 ⊑ q2]; [false] is inconclusive when comparisons are involved. *)
val is_contained : Query.t -> Query.t -> bool

(** [equivalent q1 q2] — sound in both directions. *)
val equivalent : Query.t -> Query.t -> bool

(** [is_equivalent_rewriting ~views ~query p] — expansion equivalence
    with comparison-aware (sound) containment. *)
val is_equivalent_rewriting :
  views:Vplan_views.View.t list -> query:Query.t -> Query.t -> bool
