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

    - a prepared body ({!prepare}) — canonical order, relation total and
      subset sizes — that every pass over a candidate reads;
    - a cross-candidate {!Subplan} memo shares environment sets between
      candidates whose subgoal subsets coincide (exact source);
    - an optional [bound] turns the DP into branch-and-bound: states that
      provably cannot complete below the bound are never sized, and the
      whole DP aborts once a popcount layer dies;
    - connectivity tests run on per-atom variable bitsets.

    Costs are floats for both sources; exact costs are integers, held
    exactly. *)

open Vplan_cq
module Budget = Vplan_core.Budget

(** Bodies longer than this are rejected with
    [Vplan_error.Error (Width_limit _)]: the subset DP allocates
    [2^n] states. *)
val max_subgoals : int

(** {2 Cardinality sources} *)

type source

(** [exact ?memo img] sizes intermediate relations by joining the
    relations of the interned image [img] (normally a planning context's
    materialized views, {!Optimizer.image}) with the execution engine's
    join step ({!Vplan_exec.Exec.join}; the full subset only
    {!Vplan_exec.Exec.count}s), so a plan's cost and its answers come
    from one kernel.  An atom constant [img] lacks matches nothing.
    [memo] shares the step's output ({!Subplan.entry}) across DPs
    against the same [img]. *)
val exact : ?memo:Subplan.t -> Vplan_exec.Interned.t -> source

(** [estimated est] sizes intermediate relations from {!Estimate} join
    profiles.  [Estimate.join_profiles] is not associative, so each
    subset's profile is pinned to a canonical fold order (its lowest-bit
    chain over the canonical atom order): the DP's cost of the order it
    returns equals {!cost} of that order exactly. *)
val estimated : Estimate.t -> source

(** The memo an exact source shares, if any. *)
val memo : source -> Subplan.t option

(** The catalog an estimated source folds, if any. *)
val estimator : source -> Estimate.t option

(** {2 Prepared bodies}

    Costing a body first lays it out: its atoms in canonical order
    (sorted by rendering, ties by position — a subset is a bitmask over
    it, independent of the order the body arrives in), its relation
    total, and a table of subset sizes.  The table is built on first
    use and filled state by state as a pass asks for it, so a bounded
    DP never sizes a state it prunes:

    - the estimated source keeps one profile (cardinality, width and
      distinct counts, {!Estimate.profile}) per subset, each folded from
      its lowest-bit predecessor, and every pass over the body reads the
      same table;
    - the exact source keeps two: the DP's, which shares the
      {!Subplan} memo, and one for costing single orders, which never
      touches the memo (so its counters describe the DP alone).

    {!Select.m2} lays all its candidates out at once and prepares each
    one once: ranking, the bound check, the tree seed (exact source)
    and the DP read the same prepared body.  {!cost} and {!optimal}
    prepare the one body they are given; {!lower_bound} needs no
    table. *)

(** A set of bodies laid out together: each distinct atom rendered
    once, each body in canonical order. *)
type layout

(** [layout bodies] — raises [Vplan_error.Error (Width_limit _)] when a
    body is longer than {!max_subgoals}. *)
val layout : Atom.t list list -> layout

type body

(** [prepare layout src] — the bodies of [layout], in order, prepared
    under [src]: each distinct atom's relation cells (and, for the
    estimated source, its profile over one variable index of the whole
    layout) computed once. *)
val prepare : layout -> source -> body list

(** [cost_of b order] — {!cost} of [order], a permutation of [b]'s
    body. *)
val cost_of : body -> Atom.t list -> float

(** [lower_bound_of b] — {!lower_bound} of [b]'s body. *)
val lower_bound_of : body -> float

(** [optimal_of b] — {!optimal} of [b]'s body. *)
val optimal_of :
  ?connected:bool -> ?budget:Budget.t -> ?bound:float -> body -> (Atom.t list * float) option

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

(** [relation_cells img atom] — [size(g)] of a stored relation of the
    image: its row count times the atom's arity (at least 1); 0 when
    [img] has no relation of that name. *)
val relation_cells : Vplan_exec.Interned.t -> Atom.t -> int
