(* Tests for the workload generators of Section 7. *)

open Vplan
open Helpers

let star_config n =
  { Generator.default with shape = Generator.Star; num_views = n; seed = 17 }

let chain_config n =
  { Generator.default with shape = Generator.Chain; num_views = n; seed = 17 }

let random_config n =
  {
    Generator.default with
    shape = Generator.Random_shape;
    num_views = n;
    query_subgoals = 4;
    num_relations = 3;
    seed = 17;
  }

let test_star_shape () =
  let inst = Generator.generate (star_config 10) in
  let query = inst.Generator.query in
  check_int "8 subgoals" 8 (List.length query.Query.body);
  (* all subgoals share the center variable *)
  List.iter
    (fun (a : Atom.t) ->
      check_bool "center shared" true (List.mem "C" (Atom.vars a)))
    query.Query.body;
  check_int "10 views" 10 (List.length inst.views)

let test_chain_shape () =
  let inst = Generator.generate (chain_config 10) in
  let query = inst.Generator.query in
  check_int "8 subgoals" 8 (List.length query.Query.body);
  (* consecutive subgoals chain on a shared variable *)
  let rec check_chained = function
    | (a : Atom.t) :: (b : Atom.t) :: rest ->
        (match (List.rev a.args, b.args) with
        | last :: _, first :: _ ->
            check_bool "chained" true (Term.equal last first)
        | _ -> Alcotest.fail "unexpected arity");
        check_chained (b :: rest)
    | _ -> ()
  in
  check_chained query.Query.body

let test_views_are_safe_and_named () =
  List.iter
    (fun config ->
      let inst = Generator.generate config in
      match View.validate_set inst.Generator.views with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg)
    [ star_config 30; chain_config 30; random_config 30 ]

let test_view_subgoal_bounds () =
  let inst = Generator.generate (star_config 50) in
  List.iter
    (fun (v : Query.t) ->
      let n = List.length v.body in
      check_bool "1-3 subgoals" true (n >= 1 && n <= 3))
    inst.Generator.views

let test_generation_deterministic () =
  let i1 = Generator.generate (star_config 20) in
  let i2 = Generator.generate (star_config 20) in
  check_query "same query" i1.Generator.query i2.Generator.query;
  Alcotest.(check (list string)) "same views"
    (List.map Query.to_string i1.views)
    (List.map Query.to_string i2.views)

let test_generate_with_rewriting () =
  List.iter
    (fun config ->
      let inst = Generator.generate_with_rewriting config in
      check_bool "rewriting exists" true
        (Corecover.has_rewriting ~query:inst.Generator.query ~views:inst.views))
    [ star_config 40; chain_config 40 ]

let test_nondistinguished_policy () =
  let config = { (star_config 50) with nondistinguished_per_view = 1 } in
  let inst = Generator.generate config in
  List.iter
    (fun (v : Query.t) ->
      let body_vars = List.length (Query.vars v) in
      let head_vars = List.length (Query.head_vars v) in
      if List.length v.body = 1 then
        check_int "single-subgoal views keep all vars" body_vars head_vars
      else check_int "one variable hidden" (body_vars - 1) head_vars)
    inst.Generator.views

let test_base_database () =
  let inst = Generator.generate_with_rewriting (star_config 20) in
  let db = Generator.base_database ~tuples:30 ~domain:20 inst in
  check_bool "all query relations present" true
    (List.for_all (fun p -> Database.mem p db) (Query.body_preds inst.Generator.query));
  check_bool "query satisfiable" true
    (Relation.cardinality (Oracle.Eval.answers db inst.Generator.query) > 0)

let cycle_config n =
  { Generator.default with shape = Generator.Cycle; num_views = n; seed = 17 }

let clique_config n =
  { Generator.default with shape = Generator.Clique; query_subgoals = 6; num_views = n; seed = 17 }

let test_cycle_shape () =
  let inst = Generator.generate (cycle_config 10) in
  let query = inst.Generator.query in
  check_int "8 subgoals" 8 (List.length query.Query.body);
  (* closed: last subgoal's second argument is the first subgoal's first *)
  (match (List.hd query.Query.body, List.nth query.Query.body 7) with
  | first, last -> (
      match (first.Atom.args, List.rev last.Atom.args) with
      | x0 :: _, closing :: _ -> check_bool "closes the cycle" true (Term.equal x0 closing)
      | _ -> Alcotest.fail "unexpected arity"));
  (* views never span the whole cycle *)
  List.iter
    (fun (v : Query.t) -> check_bool "arc < cycle" true (List.length v.body < 8))
    inst.views

let test_clique_shape () =
  let inst = Generator.generate (clique_config 10) in
  let query = inst.Generator.query in
  check_int "6 subgoals (K4)" 6 (List.length query.Query.body);
  (* every pair of node variables is joined exactly once *)
  let edges =
    List.map (fun (a : Atom.t) -> List.sort compare (Atom.vars a)) query.Query.body
  in
  check_int "distinct edges" 6 (List.length (List.sort_uniq compare edges))

let test_cycle_clique_end_to_end () =
  List.iter
    (fun config ->
      let inst = Generator.generate_with_rewriting ~max_attempts:100 config in
      let query = inst.Generator.query and views = inst.views in
      let r = verified ~query ~views (Corecover.gmrs ~query ~views ()) in
      check_bool "rewritings found" true (r.rewritings <> []))
    [ cycle_config 40; clique_config 40 ]

let test_random_shape_runs_corecover () =
  let inst = Generator.generate_with_rewriting (random_config 20) in
  let query = inst.Generator.query and views = inst.views in
  let r = verified ~query ~views (Corecover.gmrs ~query ~views ()) in
  check_bool "rewritings found" true (r.rewritings <> [])

let suite =
  [
    ("star shape", `Quick, test_star_shape);
    ("chain shape", `Quick, test_chain_shape);
    ("views safe and uniquely named", `Quick, test_views_are_safe_and_named);
    ("view subgoal bounds", `Quick, test_view_subgoal_bounds);
    ("deterministic generation", `Quick, test_generation_deterministic);
    ("generate_with_rewriting", `Quick, test_generate_with_rewriting);
    ("nondistinguished policy", `Quick, test_nondistinguished_policy);
    ("base database", `Quick, test_base_database);
    ("cycle shape", `Quick, test_cycle_shape);
    ("clique shape", `Quick, test_clique_shape);
    ("cycle/clique end-to-end", `Quick, test_cycle_clique_end_to_end);
    ("random shape end-to-end", `Quick, test_random_shape_runs_corecover);
  ]
