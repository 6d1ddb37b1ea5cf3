(** The one-call planning API: parse → rewrite → optimize → execute.

    This is the "downstream user" entry point combining the rewriting
    generator (CoreCover), the cost-based optimizer and the relational
    engine, mirroring the paper's two-step architecture end to end.
    Callers that plan many queries, or under another cost model, hold a
    {!Vplan_cost.Optimizer.t} and call {!Vplan_cost.Optimizer.plan}. *)

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

(** [answer_via_views problem ~base] — the full pipeline: materialize the
    views over [base] once, plan the query under exact M2 and execute the
    chosen rewriting ([`Equivalent]); when no equivalent rewriting exists,
    evaluate MiniCon's maximally-contained union over the same image for
    the certain answers ([`Fallback_certain]).  Every equivalent rewriting
    computes the query's answer, so the cost model picks only the plan,
    never the result. *)
val answer_via_views :
  problem ->
  base:Database.t ->
  [ `Equivalent of Query.t * Relation.t | `Fallback_certain of Relation.t | `No_rewriting ]
