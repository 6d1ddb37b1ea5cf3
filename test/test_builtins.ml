(* Tests for built-in comparison predicates: order-constraint closure and
   conjunctive queries with comparisons (Section 8). *)

open Vplan
open Helpers

let v x = Term.Var x
let i n = Term.Cst (Term.Int n)
let le l r = { Order_constraint.rel = Order_constraint.Le; left = l; right = r }
let lt l r = { Order_constraint.rel = Order_constraint.Lt; left = l; right = r }
let eq l r = { Order_constraint.rel = Order_constraint.Eq; left = l; right = r }

let close cs =
  match Order_constraint.of_list cs with
  | Ok t -> t
  | Error `Unsatisfiable -> Alcotest.fail "unexpectedly unsatisfiable"

let test_transitivity () =
  let t = close [ le (v "X") (v "Y"); lt (v "Y") (v "Z") ] in
  check_bool "X <= Z derivable" true (Order_constraint.implies t (le (v "X") (v "Z")));
  check_bool "X < Z derivable" true (Order_constraint.implies t (lt (v "X") (v "Z")));
  check_bool "Z <= X not derivable" false (Order_constraint.implies t (le (v "Z") (v "X")))

let test_constants_ordered () =
  let t = close [ le (v "X") (i 3) ] in
  check_bool "X <= 5 via 3 < 5" true (Order_constraint.implies t (le (v "X") (i 5)));
  check_bool "X < 5" true (Order_constraint.implies t (lt (v "X") (i 5)));
  check_bool "X <= 2 not derivable" false (Order_constraint.implies t (le (v "X") (i 2)))

let test_unsat_strict_cycle () =
  (match Order_constraint.of_list [ lt (v "X") (v "Y"); le (v "Y") (v "X") ] with
  | Error `Unsatisfiable -> ()
  | Ok _ -> Alcotest.fail "strict cycle accepted");
  match Order_constraint.of_list [ le (i 5) (v "X"); lt (v "X") (i 3) ] with
  | Error `Unsatisfiable -> ()
  | Ok _ -> Alcotest.fail "5 <= X < 3 accepted"

let test_equalities () =
  let t = close [ le (v "X") (v "Y"); le (v "Y") (v "X") ] in
  check_bool "X = Y entailed" true (Order_constraint.implies t (eq (v "X") (v "Y")));
  check_int "one entailed equality" 1 (List.length (Order_constraint.entailed_equalities t))

let test_reflexivity () =
  let t = close [] in
  check_bool "X <= X" true (Order_constraint.implies t (le (v "X") (v "X")));
  check_bool "not X < X" false (Order_constraint.implies t (lt (v "X") (v "X")))

let test_ground_semantics () =
  check_bool "3 <= 3" true (Order_constraint.satisfies_ground Order_constraint.Le (Term.Int 3) (Term.Int 3));
  check_bool "not 4 < 4" false (Order_constraint.satisfies_ground Order_constraint.Lt (Term.Int 4) (Term.Int 4));
  check_bool "strings unordered" false
    (Order_constraint.satisfies_ground Order_constraint.Le (Term.Str "a") (Term.Str "b"));
  check_bool "string equality" true
    (Order_constraint.satisfies_ground Order_constraint.Eq (Term.Str "a") (Term.Str "a"))

(* ---------------- CCQ ---------------- *)

let test_split_and_validate () =
  let query = q "q(X) :- p(X, Y), le(X, Y)." in
  let ordinary, comparisons = Ccq.split query in
  check_int "one ordinary" 1 (List.length ordinary);
  check_int "one comparison" 1 (List.length comparisons);
  (match Ccq.validate query with Ok () -> () | Error e -> Alcotest.fail e);
  let unbound = q "q(X) :- p(X, Y), le(X, Z)." in
  match Ccq.validate unbound with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unbound comparison variable accepted"

let test_ccq_answers () =
  let db =
    Database.of_facts
      [
        ("p", [ Term.Int 1; Term.Int 5 ]);
        ("p", [ Term.Int 4; Term.Int 2 ]);
        ("p", [ Term.Int 3; Term.Int 3 ]);
      ]
  in
  let between = q "q(X, Y) :- p(X, Y), le(X, Y)." in
  check_int "le filter" 2 (Relation.cardinality (Ccq.answers db between));
  let strict = q "q(X, Y) :- p(X, Y), lt(X, Y)." in
  check_int "lt filter" 1 (Relation.cardinality (Ccq.answers db strict));
  let bounded = q "q(X, Y) :- p(X, Y), le(X, 3), le(2, Y)." in
  check_int "constant bounds" 2 (Relation.cardinality (Ccq.answers db bounded))

let test_ccq_satisfiability () =
  check_bool "satisfiable" true (Ccq.is_satisfiable (q "q(X) :- p(X, Y), le(X, Y)."));
  check_bool "unsatisfiable" false
    (Ccq.is_satisfiable (q "q(X) :- p(X, Y), lt(X, Y), lt(Y, X)."))

let test_ccq_containment () =
  (* tighter constraints are contained in looser ones *)
  let tight = q "q(X, Y) :- p(X, Y), lt(X, Y)." in
  let loose = q "q(X, Y) :- p(X, Y), le(X, Y)." in
  let free = q "q(X, Y) :- p(X, Y)." in
  check_bool "lt in le" true (Ccq.is_contained tight loose);
  check_bool "le in unconstrained" true (Ccq.is_contained loose free);
  check_bool "unconstrained not in le" false (Ccq.is_contained free loose);
  check_bool "le not in lt" false (Ccq.is_contained loose tight);
  check_bool "equivalent reflexive" true (Ccq.equivalent tight tight)

let test_ccq_unsat_contained_everywhere () =
  let empty = q "q(X) :- p(X, X), lt(X, X)." in
  check_bool "empty in anything" true (Ccq.is_contained empty (q "q(Y) :- r(Y, Y)."))

let test_section8_view_with_comparison () =
  (* Section 8's view v1 carries C <= D; a rewriting using it must imply
     the comparison *)
  let query = q "q(X, Y, U, W) :- p(X, Y), r(U, W), r(W, U), le(U, W)." in
  let views =
    qs [ "v1(A, B, C, D) :- p(A, B), r(C, D), le(C, D)."; "v2(E, F) :- r(E, F)." ]
  in
  let p1 = q "q(X, Y, U, W) :- v1(X, Y, U, W), v2(W, U)." in
  check_bool "P1 equivalent (comparison-aware)" true
    (Ccq.is_equivalent_rewriting ~views ~query p1);
  (* without the le(C,D) in the view's favour, the naive rewriting that
     ignores the constraint is only contained, not equivalent *)
  let query_loose = q "q(X, Y, U, W) :- p(X, Y), r(U, W), r(W, U)." in
  check_bool "P1 not equivalent to the unconstrained query" false
    (Ccq.is_equivalent_rewriting ~views ~query:query_loose p1)

let test_section8_union_empirically () =
  (* the paper's P1: a union of two conjunctive queries over v1/v2 that
     computes the unconstrained query's answer — verified empirically on
     a concrete closed-world instance (the symbolic direction needs case
     analysis beyond the sound test) *)
  let query = q "q(X, Y, U, W) :- p(X, Y), r(U, W), r(W, U)." in
  let views =
    qs [ "v1(A, B, C, D) :- p(A, B), r(C, D), le(C, D)."; "v2(E, F) :- r(E, F)." ]
  in
  let p1a = q "q(X, Y, U, W) :- v1(X, Y, U, W), v2(W, U)." in
  let p1b = q "q(X, Y, U, W) :- v1(X, Y, W, U), v2(U, W)." in
  let base =
    Database.of_facts
      [
        ("p", [ Term.Int 10; Term.Int 20 ]);
        ("r", [ Term.Int 1; Term.Int 2 ]);
        ("r", [ Term.Int 2; Term.Int 1 ]);
        ("r", [ Term.Int 3; Term.Int 3 ]);
      ]
  in
  (* materialize views with comparison-aware evaluation *)
  let view_db =
    List.fold_left
      (fun db view -> Database.add_relation (View.name view) (Ccq.answers base view) db)
      Database.empty views
  in
  let union_answer =
    Relation.union
      (Oracle.Eval.answers view_db p1a)
      (Oracle.Eval.answers view_db p1b)
  in
  Alcotest.check relation_testable "union computes the query"
    (Oracle.Eval.answers base query) union_answer

let suite =
  [
    ("transitivity", `Quick, test_transitivity);
    ("constants ordered", `Quick, test_constants_ordered);
    ("unsat cycles", `Quick, test_unsat_strict_cycle);
    ("entailed equalities", `Quick, test_equalities);
    ("reflexivity", `Quick, test_reflexivity);
    ("ground comparison semantics", `Quick, test_ground_semantics);
    ("split and validate", `Quick, test_split_and_validate);
    ("ccq answers", `Quick, test_ccq_answers);
    ("ccq satisfiability", `Quick, test_ccq_satisfiability);
    ("ccq containment", `Quick, test_ccq_containment);
    ("unsatisfiable contained everywhere", `Quick, test_ccq_unsat_contained_everywhere);
    ("Section 8 view with comparison", `Quick, test_section8_view_with_comparison);
    ("Section 8 union, empirically", `Quick, test_section8_union_empirically);
  ]
