(* Tests for the inverse-rules baseline (Duschka-Genesereth). *)

open Vplan
open Helpers

let test_is_skolem () =
  check_bool "plain constant" false (Inverse_rules.is_skolem (Term.Str "c"));
  check_bool "int" false (Inverse_rules.is_skolem (Term.Int 3));
  check_bool "skolem spelling" true (Inverse_rules.is_skolem (Term.Str "!sk:v.Y(1)"))

let test_invert_shapes () =
  let views = qs [ "v(A) :- p(A, Y), r(Y, A)." ] in
  let rules = Inverse_rules.invert views in
  check_int "one rule per body atom" 2 (List.length rules);
  List.iter
    (fun ((head : Atom.t), (view_atom : Atom.t)) ->
      check_bool "view atom on the right" true (view_atom.pred = "v");
      check_bool "existentials marked" true
        (List.exists
           (fun x -> String.length x > 4 && String.sub x 0 4 = "!sk:")
           (Atom.vars head)
        || List.mem "A" (Atom.vars head)))
    rules

let test_recover_base () =
  let views = qs [ "v(A) :- p(A, Y)." ] in
  let base = Database.of_facts [ ("p", [ Term.Int 1; Term.Int 2 ]) ] in
  let view_db = Materialize.views base views in
  let recovered = Inverse_rules.recover_base ~views view_db in
  let p = Database.find_exn "p" recovered in
  check_int "one recovered fact" 1 (Relation.cardinality p);
  match Relation.tuples p with
  | [ [ a; b ] ] ->
      check_bool "head value preserved" true (Term.equal_const a (Term.Int 1));
      check_bool "existential skolemized" true (Inverse_rules.is_skolem b)
  | _ -> Alcotest.fail "unexpected shape"

let test_certain_answers_simple () =
  (* v hides p's second column; the join through it cannot be recovered,
     so only the projection query is certain *)
  let views = qs [ "v(A) :- p(A, Y)." ] in
  let base =
    Database.of_facts
      [ ("p", [ Term.Int 1; Term.Int 2 ]); ("p", [ Term.Int 3; Term.Int 4 ]) ]
  in
  let view_db = Materialize.views base views in
  let projection = q "q(X) :- p(X, Y)." in
  check_int "projection fully certain" 2
    (Relation.cardinality (Inverse_rules.certain_answers ~views ~query:projection view_db));
  let join = q "q(X, Z) :- p(X, Y), p(Z, Y)." in
  (* joining on the hidden column: only the trivial X = Z pairs via the
     same skolem value *)
  check_int "join through skolems only within a tuple" 2
    (Relation.cardinality (Inverse_rules.certain_answers ~views ~query:join view_db))

let test_certain_answers_sound () =
  (* certain answers never exceed the true answer *)
  let open Car_loc_part in
  let view_db = Materialize.views base views in
  let certain = Inverse_rules.certain_answers ~views ~query view_db in
  check_bool "sound" true (Relation.subset certain (Oracle.Eval.answers base query))

let test_certain_answers_complete_carloc () =
  (* with v4 available the full answer is certain *)
  let open Car_loc_part in
  let view_db = Materialize.views base views in
  Alcotest.check relation_testable "complete"
    (Oracle.Eval.answers base query)
    (Inverse_rules.certain_answers ~views ~query view_db)

let test_matches_minicon_mcr () =
  (* inverse rules and MiniCon's maximally-contained union compute the
     same certain answers *)
  let cases =
    [
      (Car_loc_part.query, Car_loc_part.views, Car_loc_part.base);
      (Example_6_1.query, Example_6_1.views, Example_6_1.base);
    ]
  in
  List.iter
    (fun (query, views, base) ->
      let view_db = Materialize.views base views in
      let ir = Inverse_rules.certain_answers ~views ~query view_db in
      match Minicon.maximally_contained ~query ~views () with
      | None -> Alcotest.fail "expected combinations"
      | Some u ->
          Alcotest.check relation_testable "agree" ir (Oracle.Eval.answers_ucq view_db u))
    cases

let test_skolem_constants_in_views () =
  (* views with constants in the body round-trip correctly *)
  let views = qs [ "v(A) :- p(A, c)." ] in
  let base =
    Database.of_facts
      [ ("p", [ Term.Int 1; Term.Str "c" ]); ("p", [ Term.Int 2; Term.Str "d" ]) ]
  in
  let view_db = Materialize.views base views in
  let recovered = Inverse_rules.recover_base ~views view_db in
  let p = Database.find_exn "p" recovered in
  check_bool "constant restored" true (Relation.mem [ Term.Int 1; Term.Str "c" ] p);
  check_int "only the visible tuple" 1 (Relation.cardinality p)

let suite =
  [
    ("skolem recognition", `Quick, test_is_skolem);
    ("invert shapes", `Quick, test_invert_shapes);
    ("recover base", `Quick, test_recover_base);
    ("certain answers simple", `Quick, test_certain_answers_simple);
    ("certain answers sound", `Quick, test_certain_answers_sound);
    ("certain answers complete (car-loc-part)", `Quick, test_certain_answers_complete_carloc);
    ("matches MiniCon MCR", `Quick, test_matches_minicon_mcr);
    ("constants in view bodies", `Quick, test_skolem_constants_in_views);
  ]
