(* Tests for the views machinery: expansion, the equivalent-rewriting
   test, canonical databases, view tuples, equivalence classes and
   materialization. *)

open Vplan
open Helpers

let test_expansion_carloc () =
  let open Car_loc_part in
  let p2e = Expansion.expand_exn ~views p2 in
  check_int "P2exp three base atoms" 3 (List.length p2e.Query.body);
  check_bool "P2exp equivalent to Q" true (Containment.equivalent p2e query);
  let p1e = Expansion.expand_exn ~views p1 in
  check_int "P1exp five base atoms" 5 (List.length p1e.Query.body);
  check_bool "P1exp equivalent to Q" true (Containment.equivalent p1e query)

let test_expansion_fresh_existentials () =
  (* two uses of the same view get distinct existential variables *)
  let views = qs [ "v(X) :- p(X, Y)." ] in
  let p = q "q(A, B) :- v(A), v(B)." in
  let e = Expansion.expand_exn ~views p in
  let existential_args =
    List.filter_map
      (fun (a : Atom.t) -> match a.args with [ _; snd ] -> Term.var_name snd | _ -> None)
      e.Query.body
  in
  check_int "two body atoms" 2 (List.length e.Query.body);
  check_int "distinct existentials" 2
    (List.length (List.sort_uniq String.compare existential_args))

let test_expansion_repeated_head_var () =
  (* v(A, A): using it as v(X, Y) forces X = Y in the expansion *)
  let views = qs [ "v(A, A) :- p(A)." ] in
  let p = q "q(X, Y) :- v(X, Y)." in
  let e = Expansion.expand_exn ~views p in
  let head_args = e.Query.head.Atom.args in
  check_bool "head variables identified" true
    (match head_args with [ t1; t2 ] -> Term.equal t1 t2 | _ -> false)

let test_expansion_head_constant_clash () =
  let views = qs [ "v(c, A) :- p(A)." ] in
  let p = q "q(X) :- v(d, X)." in
  match Expansion.expand ~views p with
  | Error `Unsatisfiable -> ()
  | Ok _ -> Alcotest.fail "expected unsatisfiable expansion"

let test_expansion_base_atoms_kept () =
  let views = qs [ "v(X) :- p(X, Y)." ] in
  let p = q "q(A) :- v(A), base(A)." in
  let e = Expansion.expand_exn ~views p in
  check_bool "base atom kept" true
    (List.exists (fun (a : Atom.t) -> a.pred = "base") e.Query.body)

let test_is_equivalent_rewriting () =
  let open Car_loc_part in
  List.iter
    (fun (name, p) ->
      check_bool name true (Expansion.is_equivalent_rewriting ~views ~query p))
    [ ("P1", p1); ("P2", p2); ("P3", p3); ("P4", p4); ("P5", p5) ];
  (* dropping a needed subgoal breaks equivalence *)
  let broken = q "q1(S, C) :- v2(S, M, C)." in
  check_bool "broken rewriting rejected" false
    (Expansion.is_equivalent_rewriting ~views ~query broken)

let test_rewritings_not_equivalent_as_queries () =
  (* the paper's subtlety: P1exp == P2exp but P1 and P2 are not equivalent
     as queries over the view predicates *)
  let open Car_loc_part in
  check_bool "P2 contained in P1 as queries" true (Containment.is_contained p2 p1);
  check_bool "P1 not contained in P2" false (Containment.is_contained p1 p2)

let test_canonical_database () =
  let open Car_loc_part in
  let c = Oracle.Canonical.freeze query in
  let db = Oracle.Canonical.database c in
  check_int "three facts" 3 (Database.total_size db);
  (* constants of the query stay; variables freeze and thaw back *)
  let frozen_m = Oracle.Canonical.frozen_term (Term.Var "M") in
  Alcotest.check term_testable "thaw variable" (Term.Var "M")
    (Oracle.Canonical.thaw_const c frozen_m);
  Alcotest.check term_testable "constant passes through" (Term.Cst (Term.Str "anderson"))
    (Oracle.Canonical.thaw_const c (Term.Str "anderson"))

let test_view_tuples_carloc () =
  let open Car_loc_part in
  let tuples = View_tuple.compute ~query views in
  let atoms = List.map (fun tv -> Atom.to_string tv.View_tuple.atom) tuples in
  let expect =
    [ "v1(M,anderson,C)"; "v2(S,M,C)"; "v3(S)"; "v4(M,anderson,C,S)"; "v5(M,anderson,C)" ]
  in
  Alcotest.(check (slist string String.compare)) "T(Q,V)" expect atoms

let test_view_tuples_example41 () =
  let open Example_4_1 in
  let tuples = View_tuple.compute ~query views in
  let atoms = List.map (fun tv -> Atom.to_string tv.View_tuple.atom) tuples in
  Alcotest.(check (slist string String.compare))
    "T(Q,V)" [ "v1(X,Z)"; "v1(Z,Z)"; "v2(Z,Y)" ] atoms

let test_view_tuple_expansion () =
  let open Example_4_1 in
  let tuples = View_tuple.compute ~query views in
  let v2_tuple =
    List.find (fun tv -> tv.View_tuple.view.Query.head.Atom.pred = "v2") tuples
  in
  let atoms, existentials = Oracle.Tuple_core.expansion ~avoid:(Query.var_set query) v2_tuple in
  check_int "two base atoms" 2 (List.length atoms);
  check_int "one existential (E)" 1 (Names.Sset.cardinal existentials);
  (* the existential must avoid the query's variables *)
  Names.Sset.iter
    (fun x -> check_bool "fresh" false (Names.Sset.mem x (Query.var_set query)))
    existentials

let test_view_with_constant_no_tuple () =
  (* a view whose body constant cannot match the frozen canonical database
     produces no view tuple *)
  let query = q "q(X) :- e(X, Y)." in
  let views = qs [ "v(A) :- e(A, b)." ] in
  check_int "no tuples" 0 (List.length (View_tuple.compute ~query views))

let test_view_head_constant_query_lacks () =
  (* a head constant that occurs nowhere in the query is still an
     argument of the tuple, and of the rewriting built from it *)
  let query = q "q(X) :- r(X, Y)." in
  List.iter
    (fun (view, tuple, rewriting) ->
      let views = qs [ view ] in
      let atoms =
        List.map (fun tv -> Atom.to_string tv.View_tuple.atom) (View_tuple.compute ~query views)
      in
      Alcotest.(check (list string)) "T(Q,V)" [ tuple ] atoms;
      let cat = Catalog.create_exn views in
      let r = Corecover.gmrs ~view_classes:(Catalog.view_classes cat) ~query ~views () in
      Alcotest.(check (list string))
        "GMRs" [ rewriting ]
        (List.map Query.to_string r.rewritings))
    [
      ("v(X, c) :- r(X, Y).", "v(X,c)", "q(X) :- v(X,c)");
      ("w(X, 7) :- r(X, Y).", "w(X,7)", "q(X) :- w(X,7)");
      ("u(c, X, X, 7) :- r(X, Y).", "u(c,X,X,7)", "q(X) :- u(c,X,X,7)");
    ]

let test_view_equivalence_classes () =
  let open Car_loc_part in
  let classes = Equiv_class.group_views views in
  check_int "four classes (v1 ~ v5)" 4 (List.length classes);
  let v1v5 =
    List.find
      (fun cls -> List.exists (fun v -> View.name v = "v1") cls)
      classes
  in
  check_int "v1 and v5 together" 2 (List.length v1v5)

let test_group_generic () =
  let groups = Equiv_class.group_by ~key:(fun a -> a mod 3) [ 1; 2; 3; 4; 5; 6 ] in
  check_int "three classes" 3 (List.length groups);
  Alcotest.(check (list int)) "representatives" [ 1; 2; 3 ] (Equiv_class.representatives groups)

let test_materialize_closed_world () =
  let open Car_loc_part in
  let img = Materialize.image base views in
  let view_db = Interned.database img in
  (* v1 and v5 have identical definitions, hence identical relations *)
  Alcotest.check relation_testable "v1 = v5"
    (Database.find_exn "v1" view_db) (Database.find_exn "v5" view_db);
  (* every rewriting computes the query's answer *)
  let truth = Oracle.Eval.answers base query in
  List.iter
    (fun (name, p) ->
      Alcotest.check relation_testable name truth
        (Exec.answers img p))
    [ ("P1", p1); ("P2", p2); ("P3", p3); ("P4", p4); ("P5", p5) ]

let test_view_validate_set () =
  let open Car_loc_part in
  (match View.validate_set views with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  match View.validate_set [ v1; v1 ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "duplicate names accepted"

let test_uses_only_views () =
  let open Car_loc_part in
  check_bool "pure view body" true (View.uses_only_views views p2);
  let mixed = q "q1(S, C) :- v2(S, M, C), car(M, anderson), loc(anderson, C)." in
  check_bool "mixed body rejected" false (View.uses_only_views views mixed)

let suite =
  [
    ("expansion car-loc-part", `Quick, test_expansion_carloc);
    ("expansion fresh existentials", `Quick, test_expansion_fresh_existentials);
    ("expansion repeated head var", `Quick, test_expansion_repeated_head_var);
    ("expansion constant clash", `Quick, test_expansion_head_constant_clash);
    ("expansion keeps base atoms", `Quick, test_expansion_base_atoms_kept);
    ("equivalent-rewriting test", `Quick, test_is_equivalent_rewriting);
    ("rewritings not equivalent as queries", `Quick, test_rewritings_not_equivalent_as_queries);
    ("canonical database", `Quick, test_canonical_database);
    ("view tuples car-loc-part", `Quick, test_view_tuples_carloc);
    ("view tuples Example 4.1", `Quick, test_view_tuples_example41);
    ("view tuple expansion", `Quick, test_view_tuple_expansion);
    ("view constant blocks tuple", `Quick, test_view_with_constant_no_tuple);
    ("view head constant the query lacks", `Quick, test_view_head_constant_query_lacks);
    ("view equivalence classes", `Quick, test_view_equivalence_classes);
    ("generic grouping", `Quick, test_group_generic);
    ("materialize closed world", `Quick, test_materialize_closed_world);
    ("view set validation", `Quick, test_view_validate_set);
    ("uses_only_views", `Quick, test_uses_only_views);
  ]
