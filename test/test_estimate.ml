(* Tests for the System-R-style cardinality estimator. *)

open Vplan
open Helpers

let uniform_db ~tuples ~domain preds =
  let rng = Prng.create 23 in
  Datagen.random rng
    (List.map (fun predicate -> { Datagen.predicate; arity = 2; tuples; domain }) preds)

let test_atom_cardinality_base () =
  let db = uniform_db ~tuples:100 ~domain:20 [ "p" ] in
  let catalog = Estimate.analyze db in
  let full = Atom.make "p" [ Term.Var "X"; Term.Var "Y" ] in
  let actual = float_of_int (Oracle.Eval.relation_size db full) in
  Alcotest.(check (float 0.01)) "full scan estimate is exact" actual
    (Estimate.cardinality catalog [ full ])

let test_constant_selection_estimate () =
  let db = uniform_db ~tuples:200 ~domain:10 [ "p" ] in
  let catalog = Estimate.analyze db in
  let selected = Atom.make "p" [ Term.Cst (Term.Int 3); Term.Var "Y" ] in
  let estimate = Estimate.cardinality catalog [ selected ] in
  let actual = float_of_int (Oracle.Eval.matching_count db selected) in
  (* uniform data: the 1/V rule should be within a small factor *)
  check_bool "within 3x of the truth" true
    (estimate > 0. && estimate /. actual < 3. && actual /. estimate < 3.)

let test_missing_relation () =
  let db = uniform_db ~tuples:10 ~domain:5 [ "p" ] in
  let catalog = Estimate.analyze db in
  Alcotest.(check (float 0.0)) "missing relation is empty" 0.
    (Estimate.cardinality catalog [ Atom.make "nope" [ Term.Var "X" ] ])

let test_repeated_var_shrinks () =
  let db = uniform_db ~tuples:200 ~domain:10 [ "p" ] in
  let catalog = Estimate.analyze db in
  let loop = Atom.make "p" [ Term.Var "X"; Term.Var "X" ] in
  let full = Atom.make "p" [ Term.Var "X"; Term.Var "Y" ] in
  check_bool "self-join selection shrinks" true
    (Estimate.cardinality catalog [ loop ] < Estimate.cardinality catalog [ full ])

let optimal src body = Option.get (M2.optimal src body)

let test_order_cost_positive_and_sensitive () =
  let db = uniform_db ~tuples:100 ~domain:12 [ "p"; "r" ] in
  let src = M2.estimated (Estimate.analyze db) in
  let body = (q "q(X, Z) :- p(X, Y), r(Y, Z).").Query.body in
  let cost = M2.cost src body in
  check_bool "positive" true (cost > 0.);
  (* adding a selective atom first should not increase the estimate of
     the later intermediate results *)
  let selective = (q "q(Z) :- p(1, Y), r(Y, Z).").Query.body in
  check_bool "selection cheaper" true (M2.cost src selective < cost)

let test_estimated_optimal_is_a_permutation () =
  let db = uniform_db ~tuples:60 ~domain:10 [ "p"; "r"; "s" ] in
  let src = M2.estimated (Estimate.analyze db) in
  let body = (q "q(X, W) :- p(X, Y), r(Y, Z), s(Z, W).").Query.body in
  let order, cost = optimal src body in
  check_bool "finite" true (Float.is_finite cost);
  Alcotest.(check (slist string String.compare))
    "permutation"
    (List.map Atom.to_string body)
    (List.map Atom.to_string order)

let test_estimated_plan_quality () =
  (* the estimated-optimal order, costed against TRUE sizes, can never
     beat the true optimum, and on uniform data should be close *)
  let db = uniform_db ~tuples:80 ~domain:10 [ "p"; "r"; "s" ] in
  let body = (q "q(X, W) :- p(X, Y), r(Y, Z), s(Z, W).").Query.body in
  let est_order, _ = optimal (M2.estimated (Estimate.analyze db)) body in
  let exact = M2.exact (Interned.of_database db) in
  let _, true_optimal = optimal exact body in
  let realized = M2.cost exact est_order in
  check_bool "never beats the true optimum" true (realized >= true_optimal);
  check_bool "within 2x on uniform data" true (realized <= 2. *. true_optimal)

(* The DP and the direct coster agree exactly on the DP's own answer:
   the canonical subset-profile fold makes [M2.cost] of the returned
   order equal to the returned cost. *)
let test_m2_estimated_cost_invariant () =
  let db = uniform_db ~tuples:80 ~domain:10 [ "p"; "r"; "s" ] in
  let src = M2.estimated (Estimate.of_stats (Stats.collect db)) in
  let body = (q "q(X, W) :- p(X, Y), r(Y, Z), s(Z, W).").Query.body in
  let order, cost = optimal src body in
  Alcotest.(check (float 0.)) "order recosts to the returned cost" cost (M2.cost src order);
  (* no permutation the DP considered is cheaper than its answer *)
  check_bool "reversal is no cheaper" true (M2.cost src (List.rev order) >= cost);
  Alcotest.(check (slist string String.compare))
    "permutation"
    (List.map Atom.to_string body)
    (List.map Atom.to_string order)

let test_select_estimated_deterministic () =
  let db = uniform_db ~tuples:80 ~domain:10 [ "p"; "r" ] in
  let est = Estimate.of_stats (Stats.collect db) in
  let wide = q "q(X, Z) :- p(X, Y), r(Y, Z)." in
  let narrow = q "q(X, Y) :- p(X, Y)." in
  let select cands = Select.m2 ~rank:est (M2.estimated est) cands in
  match select [ wide; narrow ] with
  | None -> Alcotest.fail "candidates scored"
  | Some c ->
      check_bool "single-atom candidate is cheaper" true (c.Select.rewriting == narrow);
      Alcotest.(check (float 0.0)) "cost is the candidate's own optimum"
        (snd (optimal (M2.estimated est) narrow.Query.body))
        c.Select.cost;
      (* same inputs, same choice: the selection is deterministic *)
      (match select [ wide; narrow ] with
      | Some c' ->
          check_bool "deterministic rewriting" true
            (c'.Select.rewriting == c.Select.rewriting);
          Alcotest.(check (float 0.0)) "deterministic cost" c.Select.cost c'.Select.cost
      | None -> Alcotest.fail "second run scored");
      (* empty candidate list has no choice *)
      check_bool "no candidates, no choice" true (select [] = None)

let test_view_stats_cardinality () =
  let db = uniform_db ~tuples:100 ~domain:10 [ "p" ] in
  let base = Estimate.of_stats (Stats.collect db) in
  let v = q "v(X, Y) :- p(X, Y)." in
  let est = Estimate.view_stats base [ v ] in
  let via_view = Estimate.cardinality est [ Atom.make "v" [ Term.Var "A"; Term.Var "B" ] ] in
  let direct = Estimate.cardinality base [ Atom.make "p" [ Term.Var "A"; Term.Var "B" ] ] in
  Alcotest.(check (float 0.01)) "identity view inherits the cardinality" direct via_view

let suite =
  [
    ("full-scan cardinality exact", `Quick, test_atom_cardinality_base);
    ("constant selection 1/V rule", `Quick, test_constant_selection_estimate);
    ("missing relation", `Quick, test_missing_relation);
    ("repeated variable shrinks", `Quick, test_repeated_var_shrinks);
    ("order cost sane", `Quick, test_order_cost_positive_and_sensitive);
    ("estimated optimal is a permutation", `Quick, test_estimated_optimal_is_a_permutation);
    ("estimated plan quality", `Quick, test_estimated_plan_quality);
    ("m2 estimated cost invariant", `Quick, test_m2_estimated_cost_invariant);
    ("select estimated deterministic", `Quick, test_select_estimated_deterministic);
    ("view stats identity cardinality", `Quick, test_view_stats_cardinality);
  ]
