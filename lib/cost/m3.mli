(** Cost model M3 (Section 6): dropping nonrelevant attributes.

    A physical plan is an ordering of the rewriting's subgoals where each
    position is annotated with the variables dropped once that subgoal has
    been processed.  The generalized supplementary relation [GSR_i] is the
    intermediate relation projected onto the retained variables, and

    {v cost = Σ (size(g_i) + size(GSR_i)) v}

    As in {!M2}, [size(·)] counts cells (tuples × attributes), so dropping
    an attribute always shrinks the supplementary relation — this is what
    makes the reversed orderings of Example 6.1 comparable.

    Two annotation strategies are implemented:

    - {e supplementary} (Beeri–Ramakrishnan): drop a variable as soon as it
      appears neither in the head nor in any later subgoal;
    - {e renaming heuristic} (Section 6.2): additionally drop a variable
      [Y] that {e does} appear later whenever renaming [Y]'s occurrences in
      the processed prefix to a fresh variable leaves the rewriting
      equivalent to the query.  Dropping is cumulative: each test is
      performed against the prefix as already modified by earlier drops.

    Example 6.1 of the paper is the witness that the heuristic strictly
    improves on the supplementary approach. *)

open Vplan_cq
open Vplan_relational
open Vplan_views

type step = {
  subgoal : Atom.t;  (** original subgoal at this position *)
  evaluated : Atom.t;  (** subgoal with heuristic renamings applied *)
  dropped : string list;  (** original variable names dropped after it *)
  kept : Names.Sset.t;  (** variables of [GSR_i] *)
}

type plan = step list

val pp_plan : Format.formatter -> plan -> unit

(** [supplementary ~head order] annotates with the classical rule only. *)
val supplementary : head:Atom.t -> Atom.t list -> plan

(** [heuristic ~views ~query ~head order] annotates with the Section 6.2
    rule; equivalence tests expand the modified rewriting against
    [query]. *)
val heuristic : views:View.t list -> query:Query.t -> head:Atom.t -> Atom.t list -> plan

(** [cost_of_plan db plan] evaluates the plan against the (view)
    database. *)
val cost_of_plan : Database.t -> plan -> int

(** [gsr_sizes db plan] lists [size(GSR_1), ..., size(GSR_n)]. *)
val gsr_sizes : Database.t -> plan -> int list

(** [answers db ~head plan] executes the plan and returns the final answer
    relation — used to check that dropping never changes the result. *)
val answers : Database.t -> head:Atom.t -> plan -> Relation.t

(** [cost_of_plan_bounded db ?bound plan] — like {!cost_of_plan}, but
    returns [None] as soon as the running total reaches [bound] (every
    per-step term is nonnegative, so the final cost could only be
    larger).  [Some c] implies [c < bound]. *)
val cost_of_plan_bounded : Database.t -> ?bound:int -> plan -> int option

(** [optimal db ~annotate body] enumerates all orderings of [body],
    annotates each with [annotate] and returns a cheapest plan with its
    cost.  Raises [Vplan_error.Error (Width_limit _)] past
    {!Orderings.max_subgoals}. *)
val optimal : Database.t -> annotate:(Atom.t list -> plan) -> Atom.t list -> plan * int

(** [optimal_pruned ?bound db ~annotate body] — branch-and-bound variant
    of {!optimal}: [None] when no plan costs less than [bound], otherwise
    the same result as {!optimal}.  Each candidate ordering's evaluation
    is itself abandoned once it exceeds the best cost seen so far.
    [budget] is ticked once per permutation. *)
val optimal_pruned :
  ?budget:Vplan_core.Budget.t ->
  ?bound:int ->
  Database.t ->
  annotate:(Atom.t list -> plan) ->
  Atom.t list ->
  (plan * int) option
