(* Tests for the cost models M1, M2 (join-order DP, filters) and the
   optimizer facade. *)

open Vplan
open Helpers

let test_m1_cost () =
  let open Car_loc_part in
  check_int "P1 costs 3" 3 (M1.cost p1);
  check_int "P4 costs 1" 1 (M1.cost p4);
  Alcotest.(check (list string)) "best picks P4" [ Query.to_string p4 ]
    (List.map Query.to_string (M1.best [ p1; p2; p3; p4; p5 ]))

let carloc_view_db = Materialize.views Car_loc_part.base Car_loc_part.views
let carloc = M2.exact carloc_view_db
let optimal src body = Option.get (M2.optimal src body)
let check_cost msg = Alcotest.(check (float 0.)) msg

let test_m2_cost_of_order () =
  let open Car_loc_part in
  let cost_p4 = M2.cost carloc p4.Query.body in
  (* v4 materializes to the 3 query answers + any (m,d,c,s) joins; cost =
     size(v4) + size(IR_1) where IR_1 selects dealer anderson *)
  check_bool "positive" true (cost_p4 > 0.);
  let sizes = M2.intermediate_sizes carloc_view_db p4.Query.body in
  check_int "one intermediate" 1 (List.length sizes)

let test_m2_dp_matches_exhaustive () =
  let open Car_loc_part in
  List.iter
    (fun p ->
      let _, dp = optimal carloc p.Query.body in
      let ex =
        List.fold_left
          (fun acc o -> Float.min acc (M2.cost carloc o))
          Float.infinity
          (Orderings.permutations p.Query.body)
      in
      check_cost ("optimal cost for " ^ Query.to_string p) ex dp)
    [ p1; p2; p3; p4; p5 ]

let test_m2_order_is_permutation () =
  let open Car_loc_part in
  let order, _ = optimal carloc p3.Query.body in
  Alcotest.(check (slist string String.compare))
    "permutation of the body"
    (List.map Atom.to_string p3.Query.body)
    (List.map Atom.to_string order)

let test_m2_intermediate_independent_of_prefix_order () =
  let open Car_loc_part in
  (* size(IR_n) is the same for every ordering: it is the full join *)
  let finals =
    List.map
      (fun order -> List.nth (M2.intermediate_sizes carloc_view_db order)
                      (List.length order - 1))
      (Orderings.permutations p2.Query.body)
  in
  match finals with
  | [] -> Alcotest.fail "no orderings"
  | x :: rest -> List.iter (fun y -> check_int "same final size" x y) rest

(* Build a base where v3 is very selective so that the filter pays off:
   many cars/parts, but almost no store matching all three conditions. *)
let filter_base =
  let facts = ref [] in
  let add p args = facts := (p, args) :: !facts in
  (* dealer anderson sells 20 makes; anderson is in 1 city *)
  for m = 1 to 20 do
    add "car" [ Term.Int m; Term.Str "anderson" ]
  done;
  add "loc" [ Term.Str "anderson"; Term.Str "springfield" ];
  (* lots of stores selling parts for those makes in other cities *)
  for m = 1 to 20 do
    for s = 1 to 10 do
      add "part" [ Term.Int (1000 + (10 * m) + s); Term.Int m; Term.Str "elsewhere" ]
    done
  done;
  (* exactly one store qualifies in springfield *)
  add "part" [ Term.Int 1; Term.Int 1; Term.Str "springfield" ];
  Database.of_facts !facts

let test_m2_filter_improves () =
  let open Car_loc_part in
  let view_db = Materialize.views filter_base views in
  let src = M2.exact view_db in
  let r = Corecover.all_minimal ~query ~views () in
  let p2_rewriting =
    List.find (fun (p : Query.t) -> List.length p.body = 2) r.rewritings
  in
  let _, without = optimal src p2_rewriting.Query.body in
  let body, _, with_filters = Filter.improve src ~filters:r.filters p2_rewriting.Query.body in
  check_bool "filter lowers the M2 cost" true (with_filters < without);
  (* and the filtered rewriting still computes the right answer *)
  let filtered = Query.make_exn p2_rewriting.Query.head body in
  Alcotest.check relation_testable "filtered rewriting correct"
    (Eval.answers filter_base query)
    (Materialize.answers_via_rewriting view_db filtered)

let test_m2_connected_dp () =
  let open Car_loc_part in
  (* connected bodies: same optimum or a mildly worse cross-product-free one *)
  List.iter
    (fun (p : Query.t) ->
      match M2.optimal ~connected:true carloc p.body with
      | None -> Alcotest.fail "connected body rejected"
      | Some (order, cost) ->
          let _, unrestricted = optimal carloc p.body in
          check_bool "never beats unrestricted DP" true (cost >= unrestricted);
          check_cost "cost consistent with order" cost (M2.cost carloc order))
    [ p2; p3; p4 ];
  (* a genuinely disconnected body has no cross-product-free ordering *)
  let disconnected =
    [ Atom.make "v2" [ Term.Var "S"; Term.Var "M"; Term.Var "C" ];
      Atom.make "v3" [ Term.Var "S2" ] ]
  in
  check_bool "disconnected rejected" true
    (M2.optimal ~connected:true carloc disconnected = None)

let test_m2_memo_reuse () =
  let open Car_loc_part in
  let memo = Subplan.create () in
  let src = M2.exact ~memo carloc_view_db in
  let _, c1 = optimal src p3.Query.body in
  let before = (Subplan.counters memo).Subplan.hits in
  let _, c2 = optimal src p3.Query.body in
  check_cost "same cost on reuse" c1 c2;
  check_bool "second run hits the memo" true ((Subplan.counters memo).Subplan.hits > before);
  let _, plain = optimal carloc p3.Query.body in
  check_cost "memo does not change the result" plain c1

let test_m2_pruned_bound () =
  let open Car_loc_part in
  let body = p3.Query.body in
  let order, cost = optimal carloc body in
  (match M2.optimal ~bound:cost carloc body with
  | None -> ()
  | Some _ -> Alcotest.fail "bound at the optimum must prune everything");
  (match M2.optimal ~bound:(Float.succ cost) carloc body with
  | Some (order', cost') ->
      check_cost "same cost under a loose bound" cost cost';
      Alcotest.(check (list string))
        "same order under a loose bound"
        (List.map Atom.to_string order)
        (List.map Atom.to_string order')
  | None -> Alcotest.fail "a loose bound must not prune the optimum");
  check_bool "relation-cells lower bound short-circuits" true
    (M2.optimal ~bound:(M2.lower_bound carloc body) carloc body = None)

let width_error subgoals max_subgoals =
  Vplan_error.Error (Vplan_error.Width_limit { subgoals; max_subgoals })

let test_width_limits () =
  let body n =
    List.init n (fun i -> Atom.make (Printf.sprintf "t%d" i) [ Term.Var "X" ])
  in
  Alcotest.check_raises "M2 DP capped at 20" (width_error 21 20) (fun () ->
      ignore (M2.optimal (M2.exact Car_loc_part.base) (body 21)));
  Alcotest.check_raises "permutations capped at 8" (width_error 9 8) (fun () ->
      ignore (Orderings.permutations (body 9)));
  Alcotest.check_raises "M3 optimal capped at 8" (width_error 9 8) (fun () ->
      let head = Atom.make "q" [] in
      ignore (M3.optimal Car_loc_part.base ~annotate:(M3.supplementary ~head) (body 9)))

let test_explain_renders () =
  let open Car_loc_part in
  let m2_text =
    Format.asprintf "%a" (fun ppf () -> Explain.m2 ppf carloc_view_db p2.Query.body) ()
  in
  check_bool "m2 explain mentions steps" true
    (String.length m2_text > 0
    && String.split_on_char '\n' m2_text
       |> List.exists (fun l -> String.length l >= 4 && String.sub l 0 4 = "step"));
  check_bool "m2 explain totals" true
    (String.split_on_char '\n' m2_text
    |> List.exists (fun l -> String.length l >= 5 && String.sub l 0 5 = "total"));
  let plan = M3.supplementary ~head:p2.Query.head p2.Query.body in
  let m3_text =
    Format.asprintf "%a" (fun ppf () -> Explain.m3 ppf carloc_view_db plan) ()
  in
  check_bool "m3 explain shows drops" true
    (String.length m3_text > 0
    &&
    let contains_sub s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    contains_sub m3_text "GSR")

let carloc_ctx () =
  let open Car_loc_part in
  Optimizer.create ~views base

let test_optimizer_m1 () =
  match Optimizer.plan Optimizer.M1 (carloc_ctx ()) Car_loc_part.query with
  | _, None -> Alcotest.fail "expected a rewriting"
  | _, Some c -> check_int "GMR size" 1 (List.length c.rewriting.Query.body)

let exact = Optimizer.M2 Optimizer.Exact

let test_optimizer_m2_correct_answers () =
  let open Car_loc_part in
  let ctx = carloc_ctx () in
  match Optimizer.plan exact ctx query with
  | _, None -> Alcotest.fail "expected a rewriting"
  | _, Some c ->
      let result =
        Materialize.answers_via_rewriting (Optimizer.view_database ctx) c.rewriting
      in
      Alcotest.check relation_testable "plan answer = query answer" (Eval.answers base query)
        result

let test_optimizer_m2_cost_order () =
  let open Car_loc_part in
  let ctx = carloc_ctx () in
  match Optimizer.plan exact ctx query with
  | _, None -> Alcotest.fail "expected a rewriting"
  | _, Some c ->
      (* the chosen cost must equal the cost of the reported order *)
      check_cost "consistent" c.cost (M2.cost (M2.exact (Optimizer.view_database ctx)) c.plan)

let test_optimizer_m2_estimated () =
  let open Car_loc_part in
  let ctx = carloc_ctx () in
  match Optimizer.plan (Optimizer.M2 Optimizer.Estimated) ctx query with
  | r, Some est -> (
      let view_db = Optimizer.view_database ctx in
      (* filters are exact-mode only: compare against the unfiltered
         exact optimum over the same candidates *)
      match Select.m2 ~rank:(Optimizer.estimate ctx) (M2.exact view_db) r.rewritings with
      | Some true_best ->
          check_bool "estimated route never beats the true optimum" true
            (M2.cost (M2.exact view_db) est.plan >= true_best.cost);
          (* and the chosen plan still computes the right answer *)
          Alcotest.check relation_testable "correct answers" (Eval.answers base query)
            (Materialize.answers_via_rewriting view_db est.rewriting)
      | None -> Alcotest.fail "expected an exact plan")
  | _, None -> Alcotest.fail "expected plans"

let test_optimizer_no_rewriting () =
  let query = q "q(X, Y) :- p(X, Y), r(Y, X)." in
  let views = qs [ "v(A, B) :- p(A, B)." ] in
  let base = Database.of_facts [ ("p", [ Term.Int 1; Term.Int 2 ]) ] in
  let ctx = Optimizer.create ~views base in
  check_bool "m1 none" true (snd (Optimizer.plan Optimizer.M1 ctx query) = None);
  check_bool "m2 none" true (snd (Optimizer.plan exact ctx query) = None)

let suite =
  [
    ("M1 cost and best", `Quick, test_m1_cost);
    ("M2 cost of order", `Quick, test_m2_cost_of_order);
    ("M2 DP = exhaustive", `Quick, test_m2_dp_matches_exhaustive);
    ("M2 order is a permutation", `Quick, test_m2_order_is_permutation);
    ("M2 final IR order-independent", `Quick, test_m2_intermediate_independent_of_prefix_order);
    ("M2 filters improve cost (P3 scenario)", `Quick, test_m2_filter_improves);
    ("M2 connected DP", `Quick, test_m2_connected_dp);
    ("M2 memo reuse", `Quick, test_m2_memo_reuse);
    ("M2 branch-and-bound", `Quick, test_m2_pruned_bound);
    ("typed width limits", `Quick, test_width_limits);
    ("explain renders", `Quick, test_explain_renders);
    ("optimizer M1", `Quick, test_optimizer_m1);
    ("optimizer M2 correct answers", `Quick, test_optimizer_m2_correct_answers);
    ("optimizer M2 cost consistency", `Quick, test_optimizer_m2_cost_order);
    ("optimizer M2 estimated route", `Quick, test_optimizer_m2_estimated);
    ("optimizer without rewriting", `Quick, test_optimizer_no_rewriting);
  ]
