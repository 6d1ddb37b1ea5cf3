(* Built-in comparison predicates (Section 8).

   Run with:  dune exec examples/builtin_predicates.exe

   The paper closes with queries and views carrying built-in predicates
   such as C <= D, where rewritings become unions of conjunctive queries.
   This example reproduces that closing discussion: the view v1 exposes
   only the r-pairs with C <= D, the rewriting P1 is a union of two
   conjunctive queries covering both orientations, and P2 is a single
   conjunctive query using fresh variables. *)

open Vplan

let rule = Parser.parse_rule_exn

let query = rule "q(X, Y, U, W) :- p(X, Y), r(U, W), r(W, U)."

let views =
  List.map rule
    [
      "v1(A, B, C, D) :- p(A, B), r(C, D), le(C, D).";
      "v2(E, F) :- r(E, F).";
    ]

(* P1: a union of two conjunctive queries using only the query's variables *)
let p1a = rule "q(X, Y, U, W) :- v1(X, Y, U, W), v2(W, U)."
let p1b = rule "q(X, Y, U, W) :- v1(X, Y, W, U), v2(U, W)."

(* P2: one conjunctive query, with fresh variables C and D *)
let p2 = rule "q(X, Y, U, W) :- v1(X, Y, C, D), v2(U, W), v2(W, U)."

let base =
  Database.of_facts
    [
      ("p", [ Term.Int 10; Term.Int 20 ]);
      ("p", [ Term.Int 30; Term.Int 40 ]);
      ("r", [ Term.Int 1; Term.Int 2 ]);
      ("r", [ Term.Int 2; Term.Int 1 ]);
      ("r", [ Term.Int 3; Term.Int 3 ]);
      ("r", [ Term.Int 5; Term.Int 9 ]);
    ]

(* Views with comparisons materialize through the comparison-aware
   evaluator. *)
let view_db =
  List.fold_left
    (fun db view -> Database.add_relation (View.name view) (Ccq.answers base view) db)
    Database.empty views

let () =
  Format.printf "query: %a@." Query.pp query;
  List.iter (fun v -> Format.printf "view:  %a@." Query.pp v) views;
  Format.printf "@.v1 = %a@." Relation.pp (Database.find_exn "v1" view_db);

  (* Symbolically: each P1 disjunct is a contained rewriting (sound test) *)
  List.iter
    (fun (name, p) ->
      let e = Expansion.expand_exn ~views p in
      Format.printf "%s expansion: %a@.  contained in Q: %b@." name Query.pp e
        (Ccq.is_contained e query))
    [ ("P1a", p1a); ("P1b", p1b); ("P2", p2) ];

  (* Empirically: the union P1 and the single query P2 both compute Q *)
  let truth = Eval.answers base query in
  let p1_answer = Relation.union (Eval.answers view_db p1a) (Eval.answers view_db p1b) in
  let p2_answer = Eval.answers view_db p2 in
  Format.printf "@.true answer: %d tuples@." (Relation.cardinality truth);
  Format.printf "P1 (union of 2 CQs, %d subgoals each): %d tuples (%s)@."
    (List.length p1a.Query.body)
    (Relation.cardinality p1_answer)
    (if Relation.equal truth p1_answer then "correct" else "WRONG");
  Format.printf "P2 (1 CQ, %d subgoals): %d tuples (%s)@."
    (List.length p2.Query.body)
    (Relation.cardinality p2_answer)
    (if Relation.equal truth p2_answer then "correct" else "WRONG");

  (* The paper's closing question: P2 uses fewer conjunctive queries but
     more subgoals per query — which is more efficient?  Under an
     M2-style measure, cost both against the materialized views. *)
  let m2 name body =
    let _, cost = Option.get (M2.optimal (M2.exact view_db) body) in
    Format.printf "%s optimal M2 cost: %.0f cells@." name cost
  in
  Format.printf "@.";
  m2 "P1a" p1a.Query.body;
  m2 "P1b" p1b.Query.body;
  m2 "P2 " p2.Query.body;
  Format.printf
    "(P1's cost is the sum of its disjuncts; the comparison depends on the instance,@.";
  Format.printf " exactly the open question the paper closes with.)@."
