(** High-level planning facade: parse → rewrite → optimize → execute.

    This is the "downstream user" entry point combining the rewriting
    generator (CoreCover), the cost-based optimizer and the relational
    engine, mirroring the paper's two-step architecture end to end. *)

open Vplan_cq
open Vplan_views
open Vplan_relational

type problem = {
  query : Query.t;
  views : View.t list;
}

(** [problem_of_program rules] takes the first rule as the query and the
    rest as views; validates view-name uniqueness. *)
val problem_of_program : Query.t list -> (problem, string) result

(** [parse_problem src] parses a Datalog program (see {!Parser}). *)
val parse_problem : string -> (problem, string) result

type analysis = {
  problem : problem;
  minimized_query : Query.t;
  gmrs : Query.t list;  (** optimal under M1 *)
  minimal_rewritings : Query.t list;  (** the M2 search space *)
  filters : View_tuple.t list;
  maximally_contained : Ucq.t option;
      (** open-world fallback when no equivalent rewriting exists *)
}

(** [analyze problem] runs CoreCover / CoreCover{^ *}; when no equivalent
    rewriting exists it falls back to MiniCon's maximally-contained union
    (the open-world answer). *)
val analyze : problem -> analysis

type plan =
  | Logical of Query.t  (** M1: no physical detail *)
  | Ordered of { rewriting : Query.t; order : Atom.t list; cost : int }  (** M2 *)
  | Annotated of { rewriting : Query.t; plan : Vplan_cost.M3.plan; cost : int }  (** M3 *)

type cost_model =
  [ `M1 | `M2 | `M3 of [ `Supplementary | `Heuristic ] ]

(** [plan ~cost_model ctx query] picks the optimal rewriting + plan of
    [query] over the planning context [ctx] (its views materialized over
    its base), through {!Vplan_cost.Optimizer.plan}: [budget] and
    [max_covers] bound the candidate enumeration, whose completeness is
    returned alongside. *)
val plan :
  ?budget:Vplan_core.Budget.t ->
  ?max_covers:int ->
  cost_model:cost_model ->
  Vplan_cost.Optimizer.t ->
  Query.t ->
  plan option * Vplan_rewrite.Corecover.completeness

(** [execute ctx p] runs a plan against the context's view image
    ({!Vplan_cost.Optimizer.image}) and returns the answer relation. *)
val execute : Vplan_cost.Optimizer.t -> plan -> Relation.t

(** [answer_via_views ~cost_model problem ~base] — the full pipeline:
    plan, then execute over the views materialized once ([`Fallback_certain]
    when only the open-world union is available, evaluated over the same
    image).  This is the one-call API. *)
val answer_via_views :
  cost_model:cost_model ->
  problem ->
  base:Database.t ->
  [ `Equivalent of plan * Relation.t | `Fallback_certain of Relation.t | `No_rewriting ]
