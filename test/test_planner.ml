(* Tests for the one-call planning API and the steps it composes. *)

open Vplan
open Helpers

let carloc_program =
  "q1(S, C) :- car(M, anderson), loc(anderson, C), part(S, M, C).\n\
   v1(M, D, C) :- car(M, D), loc(D, C).\n\
   v2(S, M, C) :- part(S, M, C).\n\
   v3(S) :- car(M, anderson), loc(anderson, C), part(S, M, C).\n\
   v4(M, D, C, S) :- car(M, D), loc(D, C), part(S, M, C).\n\
   v5(M, D, C) :- car(M, D), loc(D, C).\n"

let problem () =
  match Planner.parse_problem carloc_program with
  | Ok p -> p
  | Error msg -> Alcotest.fail msg

let test_parse_problem () =
  let p = problem () in
  check_int "five views" 5 (List.length p.Planner.views);
  (match Planner.parse_problem "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty program accepted");
  match Planner.parse_problem "q(X) :- p(X).\nv(X) :- p(X).\nv(X) :- p(X).\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate view names accepted"

(* The two steps the one-call API composes, on the paper's example:
   CoreCover* gives the M2 search space (whose subgoal-minimal members
   are the M1 optima) and the filter candidates. *)
let test_search_space () =
  let p = problem () in
  let all = Corecover.all_minimal ~query:p.Planner.query ~views:p.Planner.views () in
  check_int "one GMR" 1 (List.length (M1.best all.Corecover.rewritings));
  check_int "two minimal rewritings" 2 (List.length all.Corecover.rewritings);
  check_int "one filter" 1 (List.length all.Corecover.filters);
  check_bool "no open-world fallback needed" true (all.Corecover.rewritings <> [])

let test_open_world_fallback () =
  let p =
    match Planner.parse_problem "q(X) :- p(X, Y).\nv(A) :- p(A, c).\n" with
    | Ok p -> p
    | Error msg -> Alcotest.fail msg
  in
  let all = Corecover.all_minimal ~query:p.Planner.query ~views:p.Planner.views () in
  check_bool "no equivalent rewriting" true (all.Corecover.rewritings = []);
  check_bool "fallback present" true
    (Minicon.maximally_contained ~query:p.Planner.query ~views:p.Planner.views () <> None)

(* Every cost model's choice, executed over the context's view image,
   computes the query's answer. *)
let test_plan_all_models () =
  let p = problem () in
  let base = Car_loc_part.base in
  let truth = Oracle.Eval.answers base p.Planner.query in
  let ctx = Optimizer.create ~views:p.Planner.views base in
  let img = Optimizer.image ctx in
  let check model answer =
    match Optimizer.plan model ctx p.Planner.query with
    | _, None -> Alcotest.fail "expected a plan"
    | r, Some c ->
        check_bool "complete" true (r.Corecover.completeness = Corecover.Complete);
        Alcotest.check relation_testable "plan computes the answer" truth (answer c)
  in
  let rewriting (c : _ Select.choice) = Exec.answers img c.rewriting in
  check Optimizer.M1 rewriting;
  check (Optimizer.M2 Optimizer.Exact) rewriting;
  List.iter
    (fun strategy ->
      check (Optimizer.M3 strategy) (fun c ->
          M3.answers img ~head:c.rewriting.Query.head c.plan))
    [ `Supplementary; `Heuristic ]

let test_answer_via_views_equivalent () =
  let p = problem () in
  match Planner.answer_via_views p ~base:Car_loc_part.base with
  | `Equivalent (rewriting, answer) ->
      check_bool "an equivalent rewriting" true
        (Expansion.is_equivalent_rewriting ~views:p.Planner.views ~query:p.Planner.query
           rewriting);
      Alcotest.check relation_testable "answer" (Oracle.Eval.answers Car_loc_part.base p.Planner.query) answer
  | `Fallback_certain _ | `No_rewriting -> Alcotest.fail "expected equivalent plan"

let test_answer_via_views_fallback () =
  let p =
    match Planner.parse_problem "q(X) :- p(X, Y).\nv(A) :- p(A, c).\n" with
    | Ok p -> p
    | Error msg -> Alcotest.fail msg
  in
  let base =
    Database.of_facts
      [ ("p", [ Term.Int 1; Term.Str "c" ]); ("p", [ Term.Int 2; Term.Str "d" ]) ]
  in
  match Planner.answer_via_views p ~base with
  | `Fallback_certain answer ->
      check_int "certain subset" 1 (Relation.cardinality answer);
      check_bool "sound" true (Relation.subset answer (Oracle.Eval.answers base p.Planner.query))
  | `Equivalent _ -> Alcotest.fail "no equivalent rewriting exists"
  | `No_rewriting -> Alcotest.fail "expected the certain-answer fallback"

let test_answer_via_views_none () =
  let p =
    match Planner.parse_problem "q(X) :- p(X, Y).\nv(A, B) :- r(A, B).\n" with
    | Ok p -> p
    | Error msg -> Alcotest.fail msg
  in
  let base = Database.of_facts [ ("p", [ Term.Int 1; Term.Int 2 ]) ] in
  match Planner.answer_via_views p ~base with
  | `No_rewriting -> ()
  | `Equivalent _ | `Fallback_certain _ -> Alcotest.fail "expected no rewriting"

let suite =
  [
    ("parse problem", `Quick, test_parse_problem);
    ("CoreCover* search space", `Quick, test_search_space);
    ("open-world fallback", `Quick, test_open_world_fallback);
    ("plan under every cost model", `Quick, test_plan_all_models);
    ("answer_via_views equivalent", `Quick, test_answer_via_views_equivalent);
    ("answer_via_views fallback", `Quick, test_answer_via_views_fallback);
    ("answer_via_views none", `Quick, test_answer_via_views_none);
  ]
