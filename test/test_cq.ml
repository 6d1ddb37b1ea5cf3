(* Tests for the conjunctive-query kernel: terms, substitutions, atoms,
   queries, unification and the parser. *)

open Vplan
open Helpers

let test_term_compare () =
  check_bool "var equal" true (Term.equal (Term.Var "X") (Term.Var "X"));
  check_bool "var/const differ" false (Term.equal (Term.Var "x") (Term.Cst (Term.Str "x")));
  check_bool "int/str differ" false
    (Term.equal_const (Term.Int 1) (Term.Str "1"));
  check_bool "is_var" true (Term.is_var (Term.Var "X"));
  check_bool "is_const" true (Term.is_const (Term.Cst (Term.Int 3)));
  Alcotest.(check (option string)) "var_name" (Some "X") (Term.var_name (Term.Var "X"));
  Alcotest.(check string) "to_string" "X" (Term.to_string (Term.Var "X"));
  Alcotest.(check string) "const to_string" "42" (Term.to_string (Term.Cst (Term.Int 42)))

let test_term_ordering_total () =
  let terms =
    [ Term.Var "A"; Term.Var "B"; Term.Cst (Term.Int 0); Term.Cst (Term.Str "a") ]
  in
  List.iter
    (fun t1 ->
      List.iter
        (fun t2 ->
          let c12 = Term.compare t1 t2 and c21 = Term.compare t2 t1 in
          check_bool "antisymmetric" true (Int.compare c12 (-c21) = 0 || (c12 = 0 && c21 = 0)))
        terms)
    terms

let test_names_fresh () =
  let used = Names.sset_of_list [ "X"; "X_1" ] in
  Alcotest.(check string) "avoids used" "X_2" (Names.fresh ~used "X");
  Alcotest.(check string) "free name kept" "Y" (Names.fresh ~used "Y");
  let names, _ = Names.fresh_list ~used [ "X"; "X"; "Y" ] in
  Alcotest.(check (list string)) "mutually distinct" [ "X_2"; "X_3"; "Y" ] names

let test_subst_basic () =
  let s = Subst.of_list [ ("X", Term.Var "Y"); ("Z", Term.Cst (Term.Int 1)) ] in
  Alcotest.check term_testable "apply bound" (Term.Var "Y")
    (Subst.apply_term s (Term.Var "X"));
  Alcotest.check term_testable "apply unbound" (Term.Var "W")
    (Subst.apply_term s (Term.Var "W"));
  Alcotest.check term_testable "apply const" (Term.Cst (Term.Str "c"))
    (Subst.apply_term s (Term.Cst (Term.Str "c")));
  check_bool "mem" true (Subst.mem "X" s);
  check_int "cardinal" 2 (Subst.cardinal s)

let test_subst_extend_conflict () =
  let s = Subst.singleton "X" (Term.Var "Y") in
  check_bool "consistent rebind" true (Subst.extend "X" (Term.Var "Y") s <> None);
  check_bool "conflicting rebind" true (Subst.extend "X" (Term.Var "Z") s = None);
  Alcotest.check_raises "bind raises on conflict"
    (Invalid_argument "Subst.bind: conflicting binding for X") (fun () ->
      ignore (Subst.bind "X" (Term.Var "Z") s))

let test_subst_unify_term () =
  let s = Subst.empty in
  (match Subst.unify_term s (Term.Var "X") (Term.Cst (Term.Int 5)) with
  | Some s' ->
      Alcotest.check term_testable "bound to target" (Term.Cst (Term.Int 5))
        (Subst.apply_term s' (Term.Var "X"))
  | None -> Alcotest.fail "expected unification");
  check_bool "const mismatch" true
    (Subst.unify_term s (Term.Cst (Term.Int 1)) (Term.Cst (Term.Int 2)) = None);
  (* directional: pattern constant never captures a target variable *)
  check_bool "const vs var fails" true
    (Subst.unify_term s (Term.Cst (Term.Int 1)) (Term.Var "X") = None)

let test_subst_injective () =
  let s = Subst.of_list [ ("X", Term.Var "A"); ("Y", Term.Var "B") ] in
  check_bool "injective" true (Subst.is_injective_on s [ "X"; "Y" ]);
  let s' = Subst.of_list [ ("X", Term.Var "A"); ("Y", Term.Var "A") ] in
  check_bool "not injective" false (Subst.is_injective_on s' [ "X"; "Y" ])

let test_atom_basics () =
  let a = Atom.make "p" [ Term.Var "X"; Term.Cst (Term.Str "c"); Term.Var "X" ] in
  check_int "arity" 3 (Atom.arity a);
  Alcotest.(check (list string)) "vars dedup ordered" [ "X" ] (Atom.vars a);
  check_int "constants" 1 (List.length (Atom.constants a));
  let b = Atom.apply (Subst.singleton "X" (Term.Var "Y")) a in
  Alcotest.(check (list string)) "renamed" [ "Y" ] (Atom.vars b)

let test_atom_unify () =
  let pat = Atom.make "p" [ Term.Var "X"; Term.Var "X" ] in
  let tgt_ok = Atom.make "p" [ Term.Var "A"; Term.Var "A" ] in
  let tgt_bad = Atom.make "p" [ Term.Var "A"; Term.Var "B" ] in
  check_bool "repeated var ok" true (Atom.unify Subst.empty pat tgt_ok <> None);
  check_bool "repeated var mismatch" true (Atom.unify Subst.empty pat tgt_bad = None);
  let other_pred = Atom.make "q" [ Term.Var "A"; Term.Var "A" ] in
  check_bool "pred mismatch" true (Atom.unify Subst.empty pat other_pred = None)

let test_query_safety () =
  let head = Atom.make "q" [ Term.Var "X" ] in
  let body = [ Atom.make "p" [ Term.Var "Y" ] ] in
  (match Query.make head body with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unsafe query accepted");
  match Query.make head [ Atom.make "p" [ Term.Var "X" ] ] with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg

(* The error path builds sets: missing variables sorted, comma-separated,
   each once, constants never blamed. *)
let test_query_unsafe_message () =
  let v x = Term.Var x in
  let head = Atom.make "q" [ v "Y"; Term.Cst (Term.Int 3); v "X"; v "Z"; v "Y" ] in
  match Query.make head [ Atom.make "p" [ v "Z"; Term.Cst (Term.Str "Y") ] ] with
  | Ok _ -> Alcotest.fail "unsafe query accepted"
  | Error msg ->
      Alcotest.(check string) "message" "unsafe query: head variable(s) X, Y not in body" msg

let test_query_vars () =
  let query = q "q(X, Y) :- p(X, Z), r(Z, Y, c)." in
  Alcotest.(check (list string)) "head vars" [ "X"; "Y" ] (Query.head_vars query);
  Alcotest.(check (list string)) "all vars" [ "X"; "Y"; "Z" ] (Query.vars query);
  Alcotest.(check (list string)) "existential" [ "Z" ] (Query.existential_vars query);
  check_bool "distinguished" true (Query.is_distinguished query "X");
  check_bool "not distinguished" false (Query.is_distinguished query "Z");
  Alcotest.(check (list string)) "body preds" [ "p"; "r" ] (Query.body_preds query)

let test_query_rename_apart () =
  let query = q "q(X) :- p(X, Y)." in
  let avoid = Names.sset_of_list [ "X"; "Y"; "Z" ] in
  let renamed, _ = Query.rename_apart ~avoid query in
  List.iter
    (fun x -> check_bool ("fresh " ^ x) false (Names.Sset.mem x avoid))
    (Query.vars renamed);
  check_bool "same shape" true
    (Vplan.Containment.isomorphic query renamed)

let test_query_canonical () =
  let q1 = q "q(X) :- p(X, Y), p(Y, X)." in
  let q2 = q "q(A) :- p(A, B), p(B, A)." in
  check_query "canonical equal up to renaming" (Query.canonical q1) (Query.canonical q2)

let test_query_dedup () =
  let query = q "q(X) :- p(X, Y), p(X, Y), p(Y, X)." in
  check_int "dedup" 2 (List.length (Query.dedup_body query).Query.body)

let test_unify_mgu () =
  (* two-sided: repeated head variable identifies the other side's vars *)
  match Unify.mgu_args Subst.empty
          [ Term.Var "A"; Term.Var "A" ]
          [ Term.Var "X"; Term.Var "Y" ]
  with
  | None -> Alcotest.fail "expected mgu"
  | Some s ->
      let rx = Unify.resolve s (Term.Var "X") and ry = Unify.resolve s (Term.Var "Y") in
      check_bool "X and Y identified" true (Term.equal rx ry)

let test_unify_clash () =
  check_bool "constant clash" true
    (Unify.mgu_term Subst.empty (Term.Cst (Term.Int 1)) (Term.Cst (Term.Int 2)) = None);
  (* via a chain: A = X, A = 1, X = 2 must clash *)
  let s = Subst.empty in
  let s = Option.get (Unify.mgu_term s (Term.Var "A") (Term.Var "X")) in
  let s = Option.get (Unify.mgu_term s (Term.Var "A") (Term.Cst (Term.Int 1))) in
  check_bool "transitive clash" true
    (Unify.mgu_term s (Term.Var "X") (Term.Cst (Term.Int 2)) = None)

let test_parser_roundtrip () =
  let original = "q(S,C) :- car(M,anderson), loc(anderson,C), part(S,M,C)" in
  let parsed = q (original ^ ".") in
  Alcotest.(check string) "roundtrip" original (Query.to_string parsed)

let test_parser_errors () =
  let expect_error_at s (line, col) =
    match Parser.parse_rule s with
    | Error (e : Vplan_error.parse_error) ->
        check_int ("line of " ^ s) line e.line;
        check_int ("col of " ^ s) col e.col
    | Ok _ -> Alcotest.fail ("accepted bad input: " ^ s)
  in
  (* missing dot: reported where the input ends, after the last token *)
  expect_error_at "q(X) :- p(X)" (1, 13);
  expect_error_at "q(X) - p(X)." (1, 6);   (* bad turnstile *)
  expect_error_at "q(X) :- p(X,)." (1, 13); (* dangling comma *)
  expect_error_at "q(X) :- p(Y)." (1, 1);  (* unsafe: blames the rule start *)
  expect_error_at "Q(X) :- p(X)." (1, 1);  (* upper-case predicate *)
  (* positions track lines and columns across multi-line input *)
  expect_error_at "q(X) :-\n  p(X),\n  r(X,)." (3, 7)

let test_parser_integers_and_comments () =
  let program = "% leading comment\nq(X) :- p(X, 42), p(X, -7). # trailing\n" in
  match Parser.parse_program program with
  | Error e -> Alcotest.fail (Vplan_error.parse_to_string e)
  | Ok [ query ] ->
      check_int "constants" 2 (List.length (Query.constants query))
  | Ok _ -> Alcotest.fail "expected one rule"

let test_parse_facts () =
  match Parser.parse_facts "car(honda, anderson). loc(anderson, 3)." with
  | Error e -> Alcotest.fail (Vplan_error.parse_to_string e)
  | Ok facts ->
      check_int "two facts" 2 (List.length facts);
      (match Parser.parse_facts "car(X, anderson)." with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "non-ground fact accepted")

let suite =
  [
    ("term compare/equal", `Quick, test_term_compare);
    ("term ordering total", `Quick, test_term_ordering_total);
    ("fresh names", `Quick, test_names_fresh);
    ("subst basics", `Quick, test_subst_basic);
    ("subst extend conflict", `Quick, test_subst_extend_conflict);
    ("subst unify_term", `Quick, test_subst_unify_term);
    ("subst injectivity", `Quick, test_subst_injective);
    ("atom basics", `Quick, test_atom_basics);
    ("atom unify", `Quick, test_atom_unify);
    ("query safety", `Quick, test_query_safety);
    ("query unsafe message", `Quick, test_query_unsafe_message);
    ("query vars", `Quick, test_query_vars);
    ("query rename_apart", `Quick, test_query_rename_apart);
    ("query canonical", `Quick, test_query_canonical);
    ("query dedup_body", `Quick, test_query_dedup);
    ("two-sided mgu", `Quick, test_unify_mgu);
    ("mgu constant clash", `Quick, test_unify_clash);
    ("parser roundtrip", `Quick, test_parser_roundtrip);
    ("parser errors", `Quick, test_parser_errors);
    ("parser ints/comments", `Quick, test_parser_integers_and_comments);
    ("parse facts", `Quick, test_parse_facts);
  ]
