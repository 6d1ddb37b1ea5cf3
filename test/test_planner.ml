(* Tests for the high-level planner facade. *)

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

let test_analyze () =
  let a = Planner.analyze (problem ()) in
  check_int "one GMR" 1 (List.length a.Planner.gmrs);
  check_int "two minimal rewritings" 2 (List.length a.Planner.minimal_rewritings);
  check_int "one filter" 1 (List.length a.Planner.filters);
  check_bool "no open-world fallback needed" true (a.Planner.maximally_contained = None)

let test_analyze_fallback () =
  let p =
    match Planner.parse_problem "q(X) :- p(X, Y).\nv(A) :- p(A, c).\n" with
    | Ok p -> p
    | Error msg -> Alcotest.fail msg
  in
  let a = Planner.analyze p in
  check_bool "no equivalent rewriting" true (a.Planner.minimal_rewritings = []);
  check_bool "fallback present" true (a.Planner.maximally_contained <> None)

let test_plan_all_models () =
  let p = problem () in
  let base = Car_loc_part.base in
  let truth = Eval.answers base p.Planner.query in
  List.iter
    (fun cost_model ->
      let ctx = Optimizer.create ~views:p.Planner.views base in
      match Planner.plan ~cost_model ctx p.Planner.query with
      | None, _ -> Alcotest.fail "expected a plan"
      | Some plan, completeness ->
          check_bool "complete" true (completeness = Corecover.Complete);
          Alcotest.check relation_testable "plan computes the answer" truth
            (Planner.execute ctx plan))
    [ `M1; `M2; `M3 `Supplementary; `M3 `Heuristic ]

let test_answer_via_views_equivalent () =
  let p = problem () in
  match Planner.answer_via_views ~cost_model:`M2 p ~base:Car_loc_part.base with
  | `Equivalent (_, answer) ->
      Alcotest.check relation_testable "answer" (Eval.answers Car_loc_part.base p.Planner.query) answer
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
  match Planner.answer_via_views ~cost_model:`M2 p ~base with
  | `Fallback_certain answer ->
      check_int "certain subset" 1 (Relation.cardinality answer);
      check_bool "sound" true (Relation.subset answer (Eval.answers base p.Planner.query))
  | `Equivalent _ -> Alcotest.fail "no equivalent rewriting exists"
  | `No_rewriting -> Alcotest.fail "expected the certain-answer fallback"

let test_answer_via_views_none () =
  let p =
    match Planner.parse_problem "q(X) :- p(X, Y).\nv(A, B) :- r(A, B).\n" with
    | Ok p -> p
    | Error msg -> Alcotest.fail msg
  in
  let base = Database.of_facts [ ("p", [ Term.Int 1; Term.Int 2 ]) ] in
  match Planner.answer_via_views ~cost_model:`M1 p ~base with
  | `No_rewriting -> ()
  | `Equivalent _ | `Fallback_certain _ -> Alcotest.fail "expected no rewriting"

let suite =
  [
    ("parse problem", `Quick, test_parse_problem);
    ("analyze", `Quick, test_analyze);
    ("analyze fallback", `Quick, test_analyze_fallback);
    ("plan under every cost model", `Quick, test_plan_all_models);
    ("answer_via_views equivalent", `Quick, test_answer_via_views_equivalent);
    ("answer_via_views fallback", `Quick, test_answer_via_views_fallback);
    ("answer_via_views none", `Quick, test_answer_via_views_none);
  ]
