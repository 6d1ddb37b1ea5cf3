(** The candidate-selection engine: branch-and-bound over CoreCover's
    rewritings with shared subplan memoization and optional parallel
    scoring.

    The naive consumer of CoreCover{^ *} costs every candidate in full
    and keeps the cheapest.  This engine prunes and shares instead:

    - all candidates are laid out once ({!M2.layout}: each distinct
      atom rendered, and under an estimated source profiled, once per
      call) and each is prepared once ({!M2.prepare}); ranking, the
      bound check, the tree seed and the DP read that one prepared
      body, so under an estimated source they share one subset table;
    - candidates are {e ranked} by their estimated M2 cost under an
      {!Estimate} catalog, so a likely-cheap plan is costed first and
      seeds a strong incumbent (on the prepared bodies themselves when
      the source estimates with that catalog);
    - under the exact source, an acyclic candidate's join-tree order is
      costed first and seeds its own search with a bound just above
      that cost, so the DP materializes fewer states (an estimated
      state is one profile join, cheaper than finding the tree order);
    - every subsequent candidate is scored against a bound just above
      the incumbent: its search returns [None] without sizing any
      intermediate relation as soon as it provably cannot {e strictly
      beat} the incumbent — candidates {e tying} the global minimum are
      always evaluated in full, which is what makes the parallel result
      deterministic;
    - with [domains > 1] the scoring fans out over a {!Vplan_parallel}
      pool, the incumbent living in an [Atomic] that every worker
      CAS-mins after each accepted candidate;
    - an exact source's {!Subplan} memo deduplicates join evaluation
      across candidates (and across requests, when the memo is owned by
      a resident planning context).

    Determinism contract: for any [domains] and any ranking catalog, the
    returned choice is the minimum over candidates of (optimal cost,
    original candidate position) — exactly the candidate the sequential
    unranked, unpruned fold would keep (earliest on cost ties), with the
    identical order/plan, because the searches' accepted results are
    independent of how tight the bound was.

    A [budget] cancels the whole fan-out; {!Vplan_core.Budget} errors
    propagate as usual. *)

open Vplan_cq
open Vplan_relational
open Vplan_views

(** The chosen candidate: the rewriting (filters appended, if any), its
    physical plan — a join order under M2, an annotated plan under M3 —
    and the plan's cost. *)
type 'plan choice = { rewriting : Query.t; plan : 'plan; cost : float }

(** [m2 ~rank src candidates] — the M2-cheapest candidate under the
    cardinality source [src], ranked by the [rank] catalog; [None] when
    [candidates] is empty.  With [filters] each candidate is improved by
    {!Filter.improve}; candidates whose bare-body relation cells already
    exceed the incumbent are skipped without evaluating any join — sound
    because filters only add relation cells. *)
val m2 :
  ?budget:Vplan_core.Budget.t ->
  ?domains:int ->
  ?filters:View_tuple.t list ->
  rank:Estimate.t ->
  M2.source ->
  Query.t list ->
  Atom.t list choice option

(** [m3 ~rank ~annotate img candidates] — the M3-cheapest candidate over
    the materialized views of the image [img] under the per-candidate
    annotation function (supplementary or renaming heuristic),
    branch-and-bound over the permutation search of each. *)
val m3 :
  ?budget:Vplan_core.Budget.t ->
  ?domains:int ->
  rank:Estimate.t ->
  annotate:(Query.t -> Atom.t list -> M3.plan) ->
  Vplan_exec.Interned.t ->
  Query.t list ->
  M3.plan choice option

(** {2 Benchmark entry points}

    The selection steps the end-to-end ledger times in isolation, kept
    under their measured names.  [best_m2] interns its boxed view
    database argument ([Interned.of_database]) and ranks by
    [Estimate.analyze] of it (the scan its probe measures), so the
    ledger's [cost.select_exact_ms] includes one intern and one scan;
    planning code goes through {!Optimizer.plan} instead, over the
    context's resident image. *)

type m2_choice = { m2_rewriting : Query.t; m2_order : Atom.t list; m2_cost : int }

val best_m2 :
  ?memo:Subplan.t ->
  ?domains:int ->
  ?filters:View_tuple.t list ->
  Database.t ->
  Query.t list ->
  m2_choice option

val best_m2_estimated : Estimate.t -> Query.t list -> Atom.t list choice option
