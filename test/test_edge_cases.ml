(* Edge cases pushed through the whole pipeline: odd heads, constants in
   view heads, self-joins, duplicate subgoals, Boolean queries.  Each case
   runs CoreCover with verification and checks the closed-world guarantee
   on a concrete instance. *)

open Vplan
open Helpers

let closed_world_check ~query ~views ~base =
  let r = verified ~query ~views (Corecover.all_minimal ~query ~views ()) in
  let truth = Oracle.Eval.answers base query in
  let img = Materialize.image base views in
  List.iter
    (fun p ->
      Alcotest.check relation_testable
        ("rewriting " ^ Query.to_string p)
        truth
        (Exec.answers img p))
    r.Corecover.rewritings;
  r

let test_boolean_query () =
  (* 0-ary head: "is there any part sold where anderson is located?" *)
  let query = q "yes() :- loc(anderson, C), part(S, M, C)." in
  let views =
    qs [ "v1(C) :- loc(anderson, C)."; "v2(S, M, C) :- part(S, M, C)." ]
  in
  let base = Car_loc_part.base in
  let r = closed_world_check ~query ~views ~base in
  check_bool "rewriting found" true (r.rewritings <> [])

let test_constant_in_view_head () =
  let query = q "q(X) :- p(X, c)." in
  let views = qs [ "v(A, c) :- p(A, c)." ] in
  let base =
    Database.of_facts
      [ ("p", [ Term.Int 1; Term.Str "c" ]); ("p", [ Term.Int 2; Term.Str "d" ]) ]
  in
  let r = closed_world_check ~query ~views ~base in
  check_bool "constant head view usable" true (r.rewritings <> [])

let test_repeated_head_var_view () =
  (* Section 3.2's v(A,B) :- e(A,A), e(A,B) exercises repeated variables
     in bodies; here the head itself repeats a variable *)
  let query = q "q(X) :- e(X, X)." in
  let views = qs [ "v(A, A) :- e(A, A)." ] in
  let base = Database.of_facts [ ("e", [ Term.Int 1; Term.Int 1 ]); ("e", [ Term.Int 1; Term.Int 2 ]) ] in
  let r = closed_world_check ~query ~views ~base in
  check_bool "repeated-head-variable view usable" true (r.rewritings <> [])

let test_duplicate_query_subgoals () =
  (* duplicates must not confuse minimization or covering *)
  let query = q "q(X, Y) :- p(X, Y), p(X, Y), p(X, Y)." in
  let views = qs [ "v(A, B) :- p(A, B)." ] in
  let base = Database.of_facts [ ("p", [ Term.Int 1; Term.Int 2 ]) ] in
  let r = closed_world_check ~query ~views ~base in
  check_int "minimized to one subgoal" 1
    (List.length r.minimized_query.Query.body);
  check_int "one-subgoal GMR" 1 (List.length (List.hd r.rewritings).Query.body)

let test_query_all_constants () =
  (* a fully ground query: the answer is the empty tuple or nothing *)
  let query = q "q() :- p(1, 2)." in
  let views = qs [ "v(A, B) :- p(A, B)." ] in
  let base_yes = Database.of_facts [ ("p", [ Term.Int 1; Term.Int 2 ]) ] in
  let base_no = Database.of_facts [ ("p", [ Term.Int 3; Term.Int 4 ]) ] in
  let _ = closed_world_check ~query ~views ~base:base_yes in
  let _ = closed_world_check ~query ~views ~base:base_no in
  check_int "satisfied instance" 1 (Relation.cardinality (Oracle.Eval.answers base_yes query));
  check_int "unsatisfied instance" 0 (Relation.cardinality (Oracle.Eval.answers base_no query))

let test_self_join_query () =
  let query = q "q(X, Y, Z) :- p(X, Y), p(Y, Z)." in
  let views = qs [ "v(A, B) :- p(A, B)." ] in
  let base =
    Database.of_facts
      [ ("p", [ Term.Int 1; Term.Int 2 ]); ("p", [ Term.Int 2; Term.Int 3 ]) ]
  in
  let r = closed_world_check ~query ~views ~base in
  check_int "two uses of the same view" 2
    (List.length (List.hd r.rewritings).Query.body)

let test_view_bigger_than_query () =
  (* a view strictly more specific than the query cannot rewrite it *)
  let query = q "q(X) :- p(X, Y)." in
  let views = qs [ "v(A) :- p(A, B), r(B)." ] in
  check_bool "no rewriting" false (Corecover.has_rewriting ~query ~views)

let test_view_with_extra_relation () =
  (* ...but adding a view for the missing piece does not help either,
     because r(B) constrains the expansion *)
  let query = q "q(X) :- p(X, Y)." in
  let views = qs [ "v(A) :- p(A, B), r(B)."; "w(B) :- r(B)." ] in
  check_bool "still no rewriting" false (Corecover.has_rewriting ~query ~views)

let test_same_view_multiple_tuples () =
  (* one view definition can yield several view tuples on one query *)
  let query = q "q(X, Y, Z) :- p(X, Y), p(Y, Z)." in
  let views = qs [ "v(A, B) :- p(A, B)." ] in
  let tuples = View_tuple.compute ~query:(Minimize.minimize query) views in
  check_int "two view tuples" 2 (List.length tuples)

let test_unsatisfiable_rewriting_candidate () =
  (* constant clash during expansion *)
  let query = q "q(X) :- p(X, c)." in
  let views = qs [ "v(A, c) :- p(A, c)." ] in
  let bad = q "q(X) :- v(X, d)." in
  check_bool "unsatisfiable candidate rejected" false
    (Expansion.is_equivalent_rewriting ~views ~query bad)

let test_head_var_repeated_in_query () =
  let query = q "q(X, X) :- p(X, Y)." in
  let views = qs [ "v(A) :- p(A, B)." ] in
  let base = Database.of_facts [ ("p", [ Term.Int 1; Term.Int 2 ]) ] in
  let r = closed_world_check ~query ~views ~base in
  check_bool "repeated head variable handled" true (r.rewritings <> [])

let test_wide_relation () =
  (* arity 5 relations through the pipeline *)
  let query = q "q(A, E) :- wide(A, B, C, D, E)." in
  let views = qs [ "v(A, B, C, D, E) :- wide(A, B, C, D, E)." ] in
  let base =
    Database.of_facts
      [ ("wide", List.init 5 (fun i -> Term.Int i)) ]
  in
  let r = closed_world_check ~query ~views ~base in
  check_bool "wide relation rewrites" true (r.rewritings <> [])

let test_too_many_subgoals () =
  (* tuple-core bitmasks live in a native int: queries wider than that must
     be rejected up front instead of overflowing [1 lsl n] silently *)
  let n = Sys.int_size in
  let body =
    String.concat ", " (List.init n (fun i -> Printf.sprintf "p%d(X%d, X%d)" i i (i + 1)))
  in
  let head_vars = String.concat ", " (List.init (n + 1) (fun i -> Printf.sprintf "X%d" i)) in
  let query = q (Printf.sprintf "q(%s) :- %s." head_vars body) in
  let views = qs [ "v(A, B) :- p0(A, B)." ] in
  let raises f =
    match f () with
    | exception Vplan_error.Error (Vplan_error.Width_limit _) -> true
    | _ -> false
  in
  check_bool "gmrs rejects over-wide query" true (raises (fun () ->
      Corecover.gmrs ~query ~views ()));
  check_bool "has_rewriting rejects over-wide query" true (raises (fun () ->
      Corecover.has_rewriting ~query ~views))

let suite =
  [
    ("boolean query", `Quick, test_boolean_query);
    ("constant in view head", `Quick, test_constant_in_view_head);
    ("repeated head variable view", `Quick, test_repeated_head_var_view);
    ("duplicate query subgoals", `Quick, test_duplicate_query_subgoals);
    ("fully ground query", `Quick, test_query_all_constants);
    ("self-join query", `Quick, test_self_join_query);
    ("view bigger than query", `Quick, test_view_bigger_than_query);
    ("view with extra relation", `Quick, test_view_with_extra_relation);
    ("one view, several tuples", `Quick, test_same_view_multiple_tuples);
    ("unsatisfiable candidate", `Quick, test_unsatisfiable_rewriting_candidate);
    ("repeated head variable in query", `Quick, test_head_var_repeated_in_query);
    ("wide relation", `Quick, test_wide_relation);
    ("too many subgoals", `Quick, test_too_many_subgoals);
  ]
