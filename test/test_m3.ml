(* Tests for cost model M3: supplementary relations, the renaming drop
   heuristic, and Example 6.1. *)

open Vplan
open Helpers

let image_61 = Materialize.image Example_6_1.base Example_6_1.views
let view_db_61 = Interned.database image_61

let test_figure5_views () =
  (* the materialized views of Figure 5 *)
  let v1 = Database.find_exn "v1" view_db_61 in
  let v2 = Database.find_exn "v2" view_db_61 in
  check_int "v1 has 4 tuples" 4 (Relation.cardinality v1);
  check_int "v2 has 4 tuples" 4 (Relation.cardinality v2);
  check_bool "(1,2) in v1" true (Relation.mem [ Term.Int 1; Term.Int 2 ] v1)

let test_supplementary_annotations () =
  let open Example_6_1 in
  let plan = M3.supplementary ~head:p2.Query.head p2.Query.body in
  match plan with
  | [ s1; s2 ] ->
      Alcotest.(check (list string)) "nothing dropped after g1 (B used later)" [] s1.M3.dropped;
      Alcotest.(check (list string)) "B dropped at the end" [ "B" ] s2.M3.dropped
  | _ -> Alcotest.fail "expected two steps"

let test_example61_costs () =
  (* the paper's comparison: under the supplementary-relation approach P1
     beats P2; the heuristic recovers P1's cost for P2 *)
  let open Example_6_1 in
  let cost_suppl (p : Query.t) =
    M3.cost_of_plan image_61 (M3.supplementary ~head:p.head p.body)
  in
  let cost_heur (p : Query.t) =
    M3.cost_of_plan image_61 (M3.heuristic ~views ~query ~head:p.head p.body)
  in
  let f1 = cost_suppl p1 and f2 = cost_suppl p2 in
  check_bool "costM3(F1) < costM3(F2)" true (f1 < f2);
  (* cells: v1 and v2 are 4 tuples x 2 attributes = 8 each; F1's GSRs are
     {<1>} twice (1 cell each); F2 keeps both attributes of v1 in GSR_1 *)
  check_int "F1 = 18 on Figure 5" 18 f1;
  check_int "F2 = 25 on Figure 5" 25 f2;
  check_int "heuristic recovers F1's cost for P2" f1 (cost_heur p2)

let test_example61_reversed_order () =
  (* "If we reverse the two subgoals ... P1 is still more efficient" *)
  let open Example_6_1 in
  let rev (p : Query.t) = List.rev p.body in
  let cost_suppl (p : Query.t) order =
    M3.cost_of_plan image_61 (M3.supplementary ~head:p.head order)
  in
  check_bool "reversed: P1 still beats P2" true (cost_suppl p1 (rev p1) < cost_suppl p2 (rev p2))

let test_m3_plans_compute_answers () =
  let open Example_6_1 in
  let truth = Oracle.Eval.answers base query in
  let check_plan name plan (p : Query.t) =
    Alcotest.check relation_testable name truth (M3.answers image_61 ~head:p.head plan)
  in
  List.iter
    (fun (p : Query.t) ->
      check_plan "supplementary answers" (M3.supplementary ~head:p.head p.body) p;
      check_plan "heuristic answers" (M3.heuristic ~views ~query ~head:p.head p.body) p)
    [ p1; p2 ]

let test_heuristic_never_worse () =
  (* on every ordering, the heuristic's cost is at most the supplementary
     cost: it drops a superset of attributes *)
  let open Example_6_1 in
  List.iter
    (fun (p : Query.t) ->
      List.iter
        (fun order ->
          let cs = M3.cost_of_plan image_61 (M3.supplementary ~head:p.head order) in
          let ch =
            M3.cost_of_plan image_61 (M3.heuristic ~views ~query ~head:p.head order)
          in
          check_bool "heuristic <= supplementary" true (ch <= cs))
        (Orderings.permutations p.body))
    [ p1; p2 ]

let test_m3_optimal () =
  let open Example_6_1 in
  let annotate order = M3.supplementary ~head:p1.Query.head order in
  let plan, cost = Option.get (M3.optimal_pruned image_61 ~annotate p1.Query.body) in
  check_int "two steps" 2 (List.length plan);
  check_bool "cost positive" true (cost > 0);
  (* optimal over orderings is at most the written order's cost *)
  check_bool "no worse than given order" true
    (cost <= M3.cost_of_plan image_61 (annotate p1.Query.body))

let test_m3_gsr_sizes () =
  let open Example_6_1 in
  let plan = M3.heuristic ~views ~query ~head:p2.Query.head p2.Query.body in
  Alcotest.(check (list int)) "GSR sizes 1,1 (paper)" [ 1; 1 ]
    (M3.gsr_sizes image_61 plan)

let test_optimizer_m3 () =
  let open Example_6_1 in
  let ctx = Optimizer.create ~views base in
  let best strategy = snd (Optimizer.plan (Optimizer.M3 strategy) ctx query) in
  match (best `Supplementary, best `Heuristic) with
  | Some s, Some h ->
      check_bool "heuristic no worse" true (h.cost <= s.cost);
      Alcotest.check relation_testable "m3 plan computes the answer" (Oracle.Eval.answers base query)
        (M3.answers (Optimizer.image ctx) ~head:h.rewriting.Query.head h.plan)
  | _ -> Alcotest.fail "expected plans"

(* dropping on the car-loc-part instance as a second scenario *)
let test_m3_carloc () =
  let open Car_loc_part in
  let img = Materialize.image base views in
  let truth = Oracle.Eval.answers base query in
  let plan = M3.heuristic ~views ~query ~head:p2.Query.head p2.Query.body in
  Alcotest.check relation_testable "car-loc-part heuristic plan answers" truth
    (M3.answers img ~head:p2.Query.head plan)

let suite =
  [
    ("Figure 5 views", `Quick, test_figure5_views);
    ("supplementary annotations", `Quick, test_supplementary_annotations);
    ("Example 6.1 costs", `Quick, test_example61_costs);
    ("Example 6.1 reversed order", `Quick, test_example61_reversed_order);
    ("M3 plans compute the answer", `Quick, test_m3_plans_compute_answers);
    ("heuristic never worse", `Quick, test_heuristic_never_worse);
    ("M3 optimal over orderings", `Quick, test_m3_optimal);
    ("GSR sizes match the paper", `Quick, test_m3_gsr_sizes);
    ("optimizer M3", `Quick, test_optimizer_m3);
    ("M3 on car-loc-part", `Quick, test_m3_carloc);
  ]
