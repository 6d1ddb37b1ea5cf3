open Vplan_cq
open Vplan_views
open Vplan_cost
open Vplan_baselines
open Vplan_exec

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

let answer_via_views problem ~base =
  let ctx = Optimizer.create ~views:problem.views base in
  match snd (Optimizer.plan (Optimizer.M2 Optimizer.Exact) ctx problem.query) with
  | Some c -> `Equivalent (c.Select.rewriting, Exec.answers (Optimizer.image ctx) c.rewriting)
  | None -> (
      match Minicon.maximally_contained ~query:problem.query ~views:problem.views () with
      | None -> `No_rewriting
      | Some union -> `Fallback_certain (Exec.answers_ucq (Optimizer.image ctx) union))
