(* Tests for unions of conjunctive queries, their containment
   (Sagiv-Yannakakis) and the maximally-contained rewriting (Section 8). *)

open Vplan
open Helpers

let test_make_validation () =
  let q1 = q "q(X) :- p(X, Y)." and q2 = q "q(X) :- r(X, X)." in
  (match Ucq.make [ q1; q2 ] with
  | Ok u -> check_int "two disjuncts" 2 (List.length (Ucq.disjuncts u))
  | Error e -> Alcotest.fail e);
  (match Ucq.make [] with Error _ -> () | Ok _ -> Alcotest.fail "empty union accepted");
  let bad = q "other(X, Y) :- p(X, Y)." in
  match Ucq.make [ q1; bad ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mismatched heads accepted"

let test_ucq_size () =
  let u = Ucq.make_exn [ q "q(X) :- p(X, Y)."; q "q(X) :- r(X, X), p(X, X)." ] in
  check_int "total subgoals" 3 (Ucq.size u)

let test_ucq_containment () =
  let u1 = Ucq.make_exn [ q "q(X) :- p(X, c)." ] in
  let u2 = Ucq.make_exn [ q "q(X) :- p(X, Y)."; q "q(X) :- r(X, X)." ] in
  check_bool "disjunct-wise containment" true (Ucq_containment.is_contained u1 u2);
  check_bool "not conversely" false (Ucq_containment.is_contained u2 u1)

let test_ucq_union_not_in_single () =
  (* a union can exceed each of its disjuncts *)
  let u = Ucq.make_exn [ q "q(X) :- p(X, X)."; q "q(X) :- r(X, X)." ] in
  let single = Ucq.make_exn [ q "q(X) :- p(X, X)." ] in
  check_bool "single in union" true (Ucq_containment.is_contained single u);
  check_bool "union not in single" false (Ucq_containment.is_contained u single)

let test_ucq_minimize () =
  let u =
    Ucq.make_exn
      [
        q "q(X) :- p(X, Y).";
        q "q(X) :- p(X, c)."; (* contained in the first *)
        q "q(X) :- r(X, X).";
        q "q(A) :- p(A, B)."; (* duplicate of the first up to renaming *)
      ]
  in
  let m = Ucq_containment.minimize u in
  check_int "two survivors" 2 (List.length (Ucq.disjuncts m));
  check_bool "equivalent" true (Ucq_containment.equivalent u m)

let test_ucq_eval () =
  let db =
    Database.of_facts
      [ ("p", [ Term.Int 1; Term.Int 1 ]); ("r", [ Term.Int 2; Term.Int 2 ]) ]
  in
  let u = Ucq.make_exn [ q "q(X) :- p(X, X)."; q "q(X) :- r(X, X)." ] in
  check_int "union of answers" 2 (Relation.cardinality (Oracle.Eval.answers_ucq db u))

let test_expand_ucq () =
  let views = qs [ "v(A) :- p(A, c)."; "w(A) :- r(A, A)." ] in
  let u = Ucq.make_exn [ q "q(X) :- v(X)."; q "q(X) :- w(X)." ] in
  match Expansion.expand_ucq ~views u with
  | None -> Alcotest.fail "expected expansion"
  | Some e -> check_int "two disjuncts expanded" 2 (List.length (Ucq.disjuncts e))

(* the Section 8 discussion example, conjunctive fragment *)
let test_section8_p2 () =
  let query = q "q(X, Y, U, W) :- p(X, Y), r(U, W), r(W, U)." in
  let views = qs [ "v1(A, B, C, D) :- p(A, B), r(C, D)."; "v2(E, F) :- r(E, F)." ] in
  let p2 = q "q(X, Y, U, W) :- v1(X, Y, C, D), v2(U, W), v2(W, U)." in
  check_bool "P2 equivalent rewriting" true
    (Expansion.is_equivalent_rewriting ~views ~query p2);
  let u = Ucq.of_query p2 in
  check_bool "as UCQ too" true (Expansion.is_equivalent_ucq_rewriting ~views ~query u)

let test_maximally_contained_when_no_equivalent () =
  (* only one half of the query is coverable: no equivalent rewriting,
     but MiniCon still produces a maximally-contained union *)
  let query = q "q(X) :- p(X, Y)." in
  let views = qs [ "v(A) :- p(A, c)." ] in
  check_bool "no equivalent rewriting" false (Corecover.has_rewriting ~query ~views);
  match Minicon.maximally_contained ~query ~views () with
  | None -> Alcotest.fail "expected a contained union"
  | Some u ->
      check_bool "contained" true (Expansion.is_contained_ucq_rewriting ~views ~query u);
      (* over a concrete instance the union computes a subset *)
      let base =
        Database.of_facts
          [
            ("p", [ Term.Int 1; Term.Str "c" ]);
            ("p", [ Term.Int 2; Term.Str "d" ]);
          ]
      in
      let view_db = Materialize.views base views in
      let certain = Oracle.Eval.answers_ucq view_db u in
      check_bool "subset of the true answer" true
        (Relation.subset certain (Oracle.Eval.answers base query));
      check_int "finds the covered tuple" 1 (Relation.cardinality certain)

let test_mcr_equals_equivalent_when_exists () =
  (* when an equivalent rewriting exists, the maximally-contained union
     computes the full answer on materialized instances *)
  let open Car_loc_part in
  let r = Minicon.run ~query ~views () in
  match Ucq.make r.Minicon.rewritings with
  | Error _ -> Alcotest.fail "no combinations"
  | Ok u ->
      let view_db = Materialize.views base views in
      Alcotest.check relation_testable "full answer" (Oracle.Eval.answers base query)
        (Oracle.Eval.answers_ucq view_db u)

let suite =
  [
    ("make validation", `Quick, test_make_validation);
    ("size", `Quick, test_ucq_size);
    ("containment", `Quick, test_ucq_containment);
    ("union exceeds disjuncts", `Quick, test_ucq_union_not_in_single);
    ("minimize", `Quick, test_ucq_minimize);
    ("evaluation", `Quick, test_ucq_eval);
    ("expansion", `Quick, test_expand_ucq);
    ("Section 8 P2", `Quick, test_section8_p2);
    ("maximally contained fallback", `Quick, test_maximally_contained_when_no_equivalent);
    ("MCR complete on closed world", `Quick, test_mcr_equals_equivalent_when_exists);
  ]
