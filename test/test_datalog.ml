(* Tests for the Datalog engine: programs, semi-naive evaluation, magic
   sets, and recursive queries over views. *)

open Vplan
open Helpers

let tc_program =
  Program.make_exn
    (qs [ "path(X, Y) :- edge(X, Y)."; "path(X, Z) :- edge(X, Y), path(Y, Z)." ])

let edge_facts pairs = List.map (fun (x, y) -> ("edge", [ Term.Int x; Term.Int y ])) pairs
let chain_edb = Database.of_facts (edge_facts [ (1, 2); (2, 3); (3, 4); (4, 5) ])

let test_program_basics () =
  check_bool "recursive" true (Program.is_recursive tc_program);
  Alcotest.(check (list string)) "idb" [ "path" ]
    (Names.Sset.elements (Program.idb_predicates tc_program));
  Alcotest.(check (list string)) "edb" [ "edge" ]
    (Names.Sset.elements (Program.edb_predicates tc_program));
  let non_recursive = Program.make_exn (qs [ "two(X, Z) :- edge(X, Y), edge(Y, Z)." ]) in
  check_bool "non-recursive" false (Program.is_recursive non_recursive)

let test_program_arity_conflict () =
  match Program.make (qs [ "p(X) :- e(X, Y)."; "q(X) :- e(X, Y), p(X, Y)." ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "arity conflict accepted"

let test_transitive_closure () =
  let fixpoint = Seminaive.evaluate tc_program chain_edb in
  let path = Database.find_exn "path" fixpoint in
  (* 4+3+2+1 pairs on a 5-node chain *)
  check_int "all reachable pairs" 10 (Relation.cardinality path);
  check_bool "(1,5) derived" true (Relation.mem [ Term.Int 1; Term.Int 5 ] path)

let test_seminaive_equals_naive () =
  let cyclic = Database.of_facts (edge_facts [ (1, 2); (2, 3); (3, 1); (3, 4) ]) in
  List.iter
    (fun edb ->
      Alcotest.check
        (Alcotest.testable Database.pp Database.equal)
        "same fixpoint"
        (Oracle.Datalog.naive tc_program edb)
        (Seminaive.evaluate tc_program edb))
    [ chain_edb; cyclic; Database.empty ]

let test_cycle_terminates () =
  let cyclic = Database.of_facts (edge_facts [ (1, 2); (2, 3); (3, 1) ]) in
  let fixpoint = Seminaive.evaluate tc_program cyclic in
  check_int "3x3 pairs" 9 (Relation.cardinality (Database.find_exn "path" fixpoint))

let test_same_generation () =
  let program =
    Program.make_exn
      (qs
         [
           "sg(X, X) :- person(X).";
           "sg(X, Y) :- parent(X, XP), sg(XP, YP), parent(Y, YP).";
         ])
  in
  let edb =
    Database.of_facts
      (List.map (fun p -> ("person", [ Term.Str p ])) [ "a"; "c"; "d"; "e" ]
      @ List.map
          (fun (c, p) -> ("parent", [ Term.Str c; Term.Str p ]))
          [ ("c", "a"); ("d", "a"); ("e", "c") ])
  in
  let result = Seminaive.query program edb (q "q(X, Y) :- sg(X, Y).") in
  (* siblings c and d share a generation (through sg(a,a)); e is one
     generation below and does not *)
  check_bool "(c,d) same generation" true
    (Relation.mem [ Term.Str "c"; Term.Str "d" ] result);
  check_bool "(c,e) not same generation" false
    (Relation.mem [ Term.Str "c"; Term.Str "e" ] result)

let test_seminaive_nonrecursive () =
  let program = Program.make_exn (qs [ "two(X, Z) :- edge(X, Y), edge(Y, Z)." ]) in
  let fixpoint = Seminaive.evaluate program chain_edb in
  check_int "length-2 paths" 3 (Relation.cardinality (Database.find_exn "two" fixpoint))

(* ---------------- magic sets ---------------- *)

let bigger_graph =
  (* two disconnected components: 1-2-3-4 and 10-11-12 *)
  Database.of_facts (edge_facts [ (1, 2); (2, 3); (3, 4); (10, 11); (11, 12) ])

let test_magic_matches_direct () =
  let query = Atom.make "path" [ Term.Cst (Term.Int 1); Term.Var "X" ] in
  let magic = Magic.answers tc_program bigger_graph ~query in
  let direct =
    Recursive_views.answers_direct ~program:tc_program ~query bigger_graph
  in
  Alcotest.check relation_testable "same answers" direct magic;
  check_int "three reachable" 3 (Relation.cardinality magic)

let test_magic_restricts_computation () =
  let query = Atom.make "path" [ Term.Cst (Term.Int 10); Term.Var "X" ] in
  match Magic.transform tc_program ~query with
  | Error e -> Alcotest.fail e
  | Ok t ->
      let edb_with_seeds =
        List.fold_left
          (fun db (a : Atom.t) ->
            Database.add_fact a.pred
              (List.map (function Term.Cst c -> c | Term.Var _ -> assert false) a.args)
              db)
          bigger_graph (Database.facts t.seeds)
      in
      let fixpoint = Seminaive.evaluate t.program edb_with_seeds in
      (* the adorned path relation mentions only the component reachable
         from the seed 10: paths from 10, 11 and 12 (3 facts), never the
         component {1,2,3,4} *)
      let adorned = Database.find_exn t.answer_atom.Atom.pred fixpoint in
      check_int "only the relevant component" 3 (Relation.cardinality adorned);
      Relation.iter
        (fun tuple ->
          check_bool "no fact about the other component" false
            (List.exists (function Term.Int n -> n <= 4 | Term.Str _ -> false) tuple))
        adorned;
      (* while full evaluation derives all 6 + 3 pairs *)
      let full = Seminaive.evaluate tc_program bigger_graph in
      check_int "unrestricted computes more" 9
        (Relation.cardinality (Database.find_exn "path" full))

let test_magic_free_query () =
  (* an all-free query pattern degrades to full evaluation, same answers *)
  let query = Atom.make "path" [ Term.Var "X"; Term.Var "Y" ] in
  Alcotest.check relation_testable "same"
    (Recursive_views.answers_direct ~program:tc_program ~query bigger_graph)
    (Magic.answers tc_program bigger_graph ~query)

let test_magic_both_bound () =
  let yes = Atom.make "path" [ Term.Cst (Term.Int 1); Term.Cst (Term.Int 4) ] in
  let no = Atom.make "path" [ Term.Cst (Term.Int 1); Term.Cst (Term.Int 12) ] in
  check_int "derivable" 1 (Relation.cardinality (Magic.answers tc_program bigger_graph ~query:yes));
  check_int "not derivable" 0 (Relation.cardinality (Magic.answers tc_program bigger_graph ~query:no))

let test_magic_unknown_predicate () =
  match Magic.transform tc_program ~query:(Atom.make "nope" [ Term.Var "X" ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "undefined query predicate accepted"

(* ---------------- recursive queries over views ---------------- *)

let test_recursive_certain_answers () =
  (* views publish only hub-outgoing flights; reachability is recursive *)
  let views = qs [ "from_hub(H, D) :- flight(H, D), hub(H)." ] in
  let program =
    Program.make_exn
      (qs [ "reach(X, Y) :- flight(X, Y)."; "reach(X, Z) :- flight(X, Y), reach(Y, Z)." ])
  in
  let base =
    Database.of_facts
      (List.map
         (fun (x, y) -> ("flight", [ Term.Str x; Term.Str y ]))
         [ ("sfo", "ord"); ("ord", "jfk"); ("jfk", "lhr"); ("sjc", "sfo") ]
      @ [ ("hub", [ Term.Str "ord" ]); ("hub", [ Term.Str "jfk" ]) ])
  in
  let view_db = Materialize.views base views in
  let query = Atom.make "reach" [ Term.Var "X"; Term.Var "Y" ] in
  let certain = Recursive_views.certain_answers ~views ~program ~query view_db in
  let truth = Recursive_views.answers_direct ~program ~query base in
  check_bool "sound" true (Relation.subset certain truth);
  (* the hub-only views still witness ord -> jfk -> lhr transitively *)
  check_bool "(ord,lhr) certain" true
    (Relation.mem [ Term.Str "ord"; Term.Str "lhr" ] certain);
  check_int "exactly the hub-reachable pairs" 3 (Relation.cardinality certain)

let test_recursive_complete_with_lossless_view () =
  let views = qs [ "legs(X, Y) :- flight(X, Y)." ] in
  let program =
    Program.make_exn
      (qs [ "reach(X, Y) :- flight(X, Y)."; "reach(X, Z) :- flight(X, Y), reach(Y, Z)." ])
  in
  let base =
    Database.of_facts
      (List.map
         (fun (x, y) -> ("flight", [ Term.Int x; Term.Int y ]))
         [ (1, 2); (2, 3); (3, 4) ])
  in
  let view_db = Materialize.views base views in
  let query = Atom.make "reach" [ Term.Var "X"; Term.Var "Y" ] in
  Alcotest.check relation_testable "lossless view: complete"
    (Recursive_views.answers_direct ~program ~query base)
    (Recursive_views.certain_answers ~views ~program ~query view_db)

let test_nonrecursive_matches_inverse_rules () =
  (* on a non-recursive program, the Datalog route and the direct
     inverse-rules implementation agree *)
  let open Car_loc_part in
  let program = Program.make_exn [ Query.make_exn (Atom.make "ans" query.Query.head.Atom.args) query.Query.body ] in
  let view_db = Materialize.views base views in
  let query_atom = Atom.make "ans" (List.map (fun x -> Term.Var x) (Query.head_vars query)) in
  Alcotest.check relation_testable "agree"
    (Inverse_rules.certain_answers ~views ~query view_db)
    (Recursive_views.certain_answers ~views ~program ~query:query_atom view_db)

let suite =
  [
    ("program basics", `Quick, test_program_basics);
    ("program arity conflict", `Quick, test_program_arity_conflict);
    ("transitive closure", `Quick, test_transitive_closure);
    ("semi-naive = naive", `Quick, test_seminaive_equals_naive);
    ("cyclic termination", `Quick, test_cycle_terminates);
    ("same generation", `Quick, test_same_generation);
    ("non-recursive program", `Quick, test_seminaive_nonrecursive);
    ("magic = direct", `Quick, test_magic_matches_direct);
    ("magic restricts computation", `Quick, test_magic_restricts_computation);
    ("magic all-free", `Quick, test_magic_free_query);
    ("magic both bound", `Quick, test_magic_both_bound);
    ("magic unknown predicate", `Quick, test_magic_unknown_predicate);
    ("recursive certain answers", `Quick, test_recursive_certain_answers);
    ("recursive complete with lossless view", `Quick, test_recursive_complete_with_lossless_view);
    ("non-recursive matches inverse rules", `Quick, test_nonrecursive_matches_inverse_rules);
  ]
