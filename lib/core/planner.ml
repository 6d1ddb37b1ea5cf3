open Vplan_cq
open Vplan_views
open Vplan_relational
open Vplan_rewrite
open Vplan_cost
open Vplan_baselines

type problem = {
  query : Query.t;
  views : View.t list;
}

let problem_of_program = function
  | [] -> Error "empty program: expected a query rule followed by view rules"
  | query :: views -> (
      match View.validate_set views with
      | Ok () -> Ok { query; views }
      | Error msg -> Error msg)

let parse_problem src =
  match Parser.parse_program src with
  | Error e -> Error (Vplan_core.Vplan_error.parse_to_string e)
  | Ok rules -> problem_of_program rules

type analysis = {
  problem : problem;
  minimized_query : Query.t;
  gmrs : Query.t list;
  minimal_rewritings : Query.t list;
  filters : View_tuple.t list;
  maximally_contained : Ucq.t option;
}

let analyze problem =
  let { query; views } = problem in
  let all = Corecover.all_minimal ~query ~views () in
  let gmrs = M1.best all.Corecover.rewritings in
  let maximally_contained =
    if all.Corecover.rewritings = [] then Minicon.maximally_contained ~query ~views ()
    else None
  in
  {
    problem;
    minimized_query = all.Corecover.minimized_query;
    gmrs;
    minimal_rewritings = all.Corecover.rewritings;
    filters = all.Corecover.filters;
    maximally_contained;
  }

type plan =
  | Logical of Query.t
  | Ordered of {
      rewriting : Query.t;
      order : Atom.t list;
      cost : int;
    }
  | Annotated of {
      rewriting : Query.t;
      plan : M3.plan;
      cost : int;
    }

type cost_model = [ `M1 | `M2 | `M3 of [ `Supplementary | `Heuristic ] ]

let plan ?budget ?max_covers ~cost_model ctx query =
  let model_plan model wrap =
    let r, choice = Optimizer.plan ?budget ?max_covers model ctx query in
    (Option.map wrap choice, r.Corecover.completeness)
  in
  match cost_model with
  | `M1 -> model_plan Optimizer.M1 (fun (c : _ Select.choice) -> Logical c.rewriting)
  | `M2 ->
      model_plan (Optimizer.M2 Optimizer.Exact) (fun c ->
          Ordered { rewriting = c.rewriting; order = c.plan; cost = int_of_float c.cost })
  | `M3 strategy ->
      model_plan (Optimizer.M3 strategy) (fun c ->
          Annotated { rewriting = c.rewriting; plan = c.plan; cost = int_of_float c.cost })

let execute ctx p =
  let view_db = Optimizer.view_database ctx in
  match p with
  | Logical rewriting | Ordered { rewriting; _ } ->
      Materialize.answers_via_rewriting view_db rewriting
  | Annotated { rewriting; plan; _ } -> M3.answers view_db ~head:rewriting.Query.head plan

let answer_via_views ~cost_model problem ~base =
  let ctx = Optimizer.create ~views:problem.views base in
  match fst (plan ~cost_model ctx problem.query) with
  | Some p -> `Equivalent (p, execute ctx p)
  | None -> (
      match Minicon.maximally_contained ~query:problem.query ~views:problem.views () with
      | None -> `No_rewriting
      | Some union -> `Fallback_certain (Eval.answers_ucq (Optimizer.view_database ctx) union))
