(* Quickstart: rewrite a query using views and pick a cost-based plan.

   Run with:  dune exec examples/quickstart.exe

   The scenario is the paper's running example (Example 1.1): a dealer
   database with three base relations and five materialized views. *)

open Vplan

let () =
  (* 1. Define the query and the views, in Datalog syntax. *)
  let query =
    Parser.parse_rule_exn
      "q1(S, C) :- car(M, anderson), loc(anderson, C), part(S, M, C)."
  in
  let views =
    List.map Parser.parse_rule_exn
      [
        "v1(M, D, C) :- car(M, D), loc(D, C).";
        "v2(S, M, C) :- part(S, M, C).";
        "v3(S) :- car(M, anderson), loc(anderson, C), part(S, M, C).";
        "v4(M, D, C, S) :- car(M, D), loc(D, C), part(S, M, C).";
        "v5(M, D, C) :- car(M, D), loc(D, C).";
      ]
  in

  (* 2. Run CoreCover: all globally-minimal rewritings (cost model M1). *)
  let result = Corecover.gmrs ~query ~views () in
  Format.printf "Globally-minimal rewritings:@.";
  List.iter (fun p -> Format.printf "  %a@." Query.pp p) result.rewritings;

  (* 3. CoreCover*: every minimal rewriting, plus filter candidates, for
        the size-based cost model M2. *)
  let all = Corecover.all_minimal ~query ~views () in
  Format.printf "@.All minimal rewritings:@.";
  List.iter (fun p -> Format.printf "  %a@." Query.pp p) all.rewritings;
  Format.printf "Filter candidates (empty tuple-core):";
  List.iter (fun tv -> Format.printf " %a" View_tuple.pp tv) all.filters;
  Format.printf "@.";

  (* 4. Cost-based choice over a concrete instance. *)
  let base =
    match
      Parser.parse_facts
        "car(honda, anderson). car(toyota, anderson). car(ford, baker).\n\
         loc(anderson, springfield). loc(anderson, shelby). loc(baker, springfield).\n\
         part(s1, honda, springfield). part(s2, toyota, shelby).\n\
         part(s3, ford, springfield). part(s4, honda, shelby)."
    with
    | Ok facts -> Database.of_facts facts
    | Error e -> failwith (Vplan_error.parse_to_string e)
  in
  let ctx = Optimizer.create ~views base in
  (match Optimizer.plan (Optimizer.M2 Optimizer.Exact) ctx query with
  | _, Some choice ->
      Format.printf "@.M2-optimal rewriting: %a@." Query.pp choice.rewriting;
      Format.printf "Join order:";
      List.iter (fun a -> Format.printf " %a" Atom.pp a) choice.plan;
      Format.printf "@.M2 cost: %.0f cells@." choice.cost
  | _, None -> Format.printf "no rewriting@.");

  (* 5. Verify the closed-world guarantee: the rewriting computes exactly
        the query's answer over the materialized views. *)
  let truth = Eval.answers base query in
  Format.printf "@.Query answer (%d tuples): %a@." (Relation.cardinality truth)
    Relation.pp truth
