(** Cost model M2 (Section 5): sizes of view relations and intermediate
    relations.

    A physical plan is an ordering [g1, ..., gn] of the rewriting's
    subgoals; joining the first [i] subgoals with {e all attributes
    retained} yields the intermediate relation [IR_i], and

    {v cost = Σ (size(g_i) + size(IR_i)) v}

    [size(·)] counts {e cells} — tuples × attributes — the natural proxy
    for the disk-I/O volume the paper's cost model is motivated by.  (A
    pure tuple count cannot see that dropping attributes shrinks a
    relation, which Section 6's comparisons rely on.)

    Because attributes are never dropped, [size(IR_i)] depends only on the
    {e set} of joined subgoals, so the optimal ordering is found by dynamic
    programming over subsets.  The sizes come from a {e cardinality
    source}: the materialized view relations ({!exact}, the paper's
    measure) or statistics ({!estimated}, never touching the data).  One
    DP serves both, with the accelerations the candidate-selection engine
    ({!Select}) relies on:

    - a cross-candidate {!Subplan} memo shares environment sets between
      candidates whose subgoal subsets coincide (exact source);
    - an optional [bound] turns the DP into branch-and-bound: states that
      provably cannot complete below the bound are never sized, and the
      whole DP aborts once a popcount layer dies;
    - connectivity tests run on per-atom variable bitsets.

    Costs are floats for both sources; exact costs are integers, held
    exactly. *)

open Vplan_cq
open Vplan_relational
module Budget = Vplan_core.Budget

(** Bodies longer than this are rejected with
    [Vplan_error.Error (Width_limit _)]: the subset DP allocates
    [2^n] states. *)
val max_subgoals : int

(** {2 Cardinality sources} *)

type source

(** [exact ?memo db] sizes intermediate relations by joining the
    relations of [db] (normally the materialized views).  [memo] shares
    those joins across DPs against the same [db]. *)
val exact : ?memo:Subplan.t -> Database.t -> source

(** [estimated est] sizes intermediate relations from {!Estimate} join
    profiles.  [Estimate.join_profiles] is not associative, so each
    subset's profile is pinned to a canonical fold order: the DP's cost
    of the order it returns equals {!cost} of that order exactly. *)
val estimated : Estimate.t -> source

(** The memo an exact source shares, if any. *)
val memo : source -> Subplan.t option

(** {2 Costing} *)

(** [cost src order] — the M2 cost of one specific ordering, relation
    cells included.  Never touches the source's memo. *)
val cost : source -> Atom.t list -> float

(** [lower_bound src body] — the relation cells of [body]: the
    order-independent part of every ordering's cost, computed without
    any join. *)
val lower_bound : source -> Atom.t list -> float

(** [optimal src body] — a cost-optimal ordering of [body] and its
    cost, by DP over subsets (ties go to the lowest canonical atom
    index).

    - [bound]: [None] when no ordering costs [< bound] (in particular,
      immediately when {!lower_bound} reaches it); otherwise the same
      result as without a bound.
    - [connected]: only orderings whose every atom shares a variable
      with an earlier one (the cross-product-avoiding heuristic of
      production optimizers); [None] when the join graph is
      disconnected.  The result can cost more than the unrestricted
      optimum — a cross product is occasionally cheapest — over a much
      smaller search space.
    - [budget] is ticked once per DP state.

    Without [bound] or [connected] the result is always [Some].  Raises
    [Vplan_error.Error (Width_limit _)] past {!max_subgoals}. *)
val optimal :
  ?connected:bool ->
  ?budget:Budget.t ->
  ?bound:float ->
  source ->
  Atom.t list ->
  (Atom.t list * float) option

(** {2 Exact sizes} *)

(** [intermediate_sizes db order] lists the {e tuple counts} of
    [IR_1, ..., IR_n] (widths are implied by the variables joined). *)
val intermediate_sizes : Database.t -> Atom.t list -> int list

(** [relation_cells db atom] — [size(g)] of a stored relation: cardinality
    times arity (at least 1). *)
val relation_cells : Database.t -> Atom.t -> int
