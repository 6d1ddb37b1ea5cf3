(** Homomorphism (containment-mapping) search between atom lists.

    A homomorphism from a list of pattern atoms to a list of target atoms
    is a substitution on the pattern's variables that maps every constant
    to itself and sends each pattern atom to {e some} target atom.  This is
    the core primitive behind the Chandra–Merlin containment test, query
    minimization, tuple-core computation and the relational evaluator
    (facts are ground atoms).

    Deciding containment of conjunctive queries is NP-complete in
    general, but when the pattern body is α-acyclic
    ({!Vplan_hypergraph.Hypergraph}) the decision problem is polynomial:
    [find] and [exists] answer it by dynamic programming over the GYO
    join tree (candidate matches per tree node, a bottom-up semi-join
    sweep, top-down witness assembly), falling back to the general
    backtracking search — most-constrained-first atom ordering plus
    predicate indexing — on cyclic patterns.  The counters
    [vplan_containment_fastpath_total] and
    [vplan_containment_fallback_total] account which path answered.
    Enumeration ([find_all], [iter_all]) always uses backtracking.

    Because neither search is free, every entry point accepts a
    [?budget] ({!Vplan_core.Budget.t}) ticked once per candidate tried,
    so a deadline or cancellation cuts the search off within one
    step. *)

open Vplan_cq

(** [find ~seed patterns targets] returns a substitution extending [seed]
    that maps every atom of [patterns] to an atom of [targets], or [None].
    [seed] typically carries the head correspondence.  The witness may
    differ between the two paths; both are valid homomorphisms.
    [fastpath] (default [true]) takes the join-tree path on acyclic
    patterns; [false] always backtracks (for A/B measurement). *)
val find :
  ?budget:Vplan_core.Budget.t ->
  ?fastpath:bool ->
  ?seed:Subst.t -> Atom.t list -> Atom.t list -> Subst.t option

(** [exists ~seed patterns targets] is [find ... <> None]. *)
val exists :
  ?budget:Vplan_core.Budget.t ->
  ?fastpath:bool ->
  ?seed:Subst.t -> Atom.t list -> Atom.t list -> bool

(** [find_all ~seed ~limit patterns targets] enumerates distinct
    homomorphisms (at most [limit] of them when given).  Two search
    branches producing the same substitution are deduplicated. *)
val find_all :
  ?budget:Vplan_core.Budget.t ->
  ?seed:Subst.t -> ?limit:int -> Atom.t list -> Atom.t list -> Subst.t list

(** [iter_all ~seed patterns targets ~f] calls [f] on every homomorphism
    found, without materializing the list; [f] returning [`Stop] aborts the
    enumeration.  Duplicate substitutions may be visited more than once
    when distinct target atoms induce the same bindings. *)
val iter_all :
  ?budget:Vplan_core.Budget.t ->
  ?seed:Subst.t -> Atom.t list -> Atom.t list -> f:(Subst.t -> [ `Continue | `Stop ]) -> unit
