(** The planning pipeline — the "two-step approach" of the paper:
    CoreCover{^ *} generates the candidate rewritings, and the {!Select}
    engine picks the cheapest plan among them under a cost model.  Every
    front door (the library facade, the CLI, the REPL and the resident
    service) plans through {!plan}.

    Plans are chosen against a planning {e context}: one set of views
    over one base database with its statistics.  The context holds what
    planning reuses across queries — the statistics-derived {!Estimate}
    catalog (which ranks candidates in every mode and costs them in
    estimated mode), the materialized view relations (built on the first
    exact use, so estimated mode never materializes a view) and the
    cross-candidate {!Subplan} memo over them.  A context may be shared
    across domains. *)

open Vplan_cq
open Vplan_relational
open Vplan_views

type t

(** [create ~views base] — a planning context for [views] over [base].
    [stats] are [base]'s statistics, collected here when absent;
    [view_classes], when given, is the equivalence-class partition of
    [views] CoreCover{^ *} reuses instead of regrouping (see
    {!Vplan_rewrite.Corecover.all_minimal}). *)
val create :
  ?view_classes:View.t list list ->
  ?stats:Vplan_stats.Stats.t ->
  views:View.t list ->
  Database.t ->
  t

(** The estimation catalog: base statistics extended with per-view
    estimates ({!Estimate.view_stats}), never a scan of view data. *)
val estimate : t -> Estimate.t

(** The materialized view relations, built on first use (under the
    [materialize] phase). *)
val view_database : t -> Database.t

(** The context's subplan memo, valid for {!view_database}. *)
val memo : t -> Subplan.t

(** How M2 sizes intermediate relations: [Exact] joins the materialized
    view relations (the paper's cost model); [Estimated] derives them
    from statistics alone. *)
type mode = Exact | Estimated

type strategy = [ `Supplementary | `Heuristic ]

(** The cost model a plan is chosen under, indexed by its physical
    plan: M1 counts subgoals (no physical plan), M2 picks a join order,
    M3 an order annotated with the attributes dropped after each step
    (supplementary relations or the Section 6.2 renaming heuristic;
    exact sizes only). *)
type _ model =
  | M1 : unit model
  | M2 : mode -> Atom.t list model
  | M3 : strategy -> M3.plan model

(** [plan model t query] runs CoreCover{^ *} on [query] under [budget]
    (anytime: a cut-short run yields a [Truncated] result) and
    [max_covers], then selects the cheapest candidate under [model] —
    in M2 exact mode with the empty-core view tuples as optional
    filtering subgoals.  [domains] fans out both steps.  Returns the
    CoreCover{^ *} result (candidates, completeness) and the choice,
    [None] when no candidate exists.  Selection has no partial answer:
    a budget exhausted during it raises the typed error. *)
val plan :
  ?budget:Vplan_core.Budget.t ->
  ?max_covers:int ->
  ?domains:int ->
  'p model ->
  t ->
  Query.t ->
  Vplan_rewrite.Corecover.result * 'p Select.choice option
