(* The hash-join engine (Vplan_exec): oracle equivalence against the
   backtracking evaluator, interning roundtrips, radix partitioning at
   the threshold edge, and budget truncation mid-probe. *)

open Vplan

let parse = Parser.parse_rule_exn

let db_of_facts facts =
  Database.of_facts (List.map (fun (p, t) -> (p, List.map (fun i -> Term.Int i) t)) facts)

let check_same_answers ?semijoin ?radix_threshold db q =
  let expected = Eval.answers db q in
  let got = Exec.answers ?semijoin ?radix_threshold (Interned.of_database db) q in
  Alcotest.(check bool)
    (Format.asprintf "answers agree on %a" Query.pp q)
    true
    (Relation.equal expected got)

(* -- interning roundtrip -------------------------------------------- *)

let test_intern_roundtrip () =
  let db =
    Database.of_facts
      [
        ("r", [ Term.Int 3; Term.Str "a" ]);
        ("r", [ Term.Int 5; Term.Str "b" ]);
        ("s", [ Term.Str "a" ]);
      ]
  in
  let t = Interned.of_database db in
  (* every stored row decodes back to a tuple of the source relation *)
  List.iter
    (fun pred ->
      let r = Database.find_exn pred db in
      match Interned.find t pred with
      | None -> Alcotest.fail ("relation " ^ pred ^ " not interned")
      | Some rel ->
          Alcotest.(check int) (pred ^ " rows") (Relation.cardinality r) rel.Interned.rows;
          for row = 0 to rel.Interned.rows - 1 do
            let tuple = Interned.tuple_of_row t rel row in
            Alcotest.(check bool) (pred ^ " row decodes") true (Relation.mem tuple r)
          done)
    (Database.predicates db);
  (* codes roundtrip through const_id/const *)
  List.iter
    (fun c ->
      match Interned.const_id t c with
      | None -> Alcotest.fail "known constant has no code"
      | Some id -> Alcotest.(check bool) "const roundtrip" true (Interned.const t id = c))
    [ Term.Int 3; Term.Int 5; Term.Str "a"; Term.Str "b" ];
  Alcotest.(check bool) "absent constant has no code" true
    (Interned.const_id t (Term.Int 42) = None)

(* -- basic joins against the oracle --------------------------------- *)

let test_chain_join () =
  let db =
    db_of_facts
      [
        ("r0", [ 0; 1 ]); ("r0", [ 0; 2 ]); ("r0", [ 1; 2 ]);
        ("r1", [ 1; 3 ]); ("r1", [ 2; 3 ]); ("r1", [ 2; 4 ]);
        ("r2", [ 3; 7 ]); ("r2", [ 4; 8 ]);
      ]
  in
  let q = parse "q(X, Z) :- r0(0, X), r1(X, Y), r2(Y, Z)." in
  check_same_answers db q;
  check_same_answers ~semijoin:true db q;
  check_same_answers ~semijoin:false db q

let test_repeated_vars_and_constants () =
  let db =
    db_of_facts
      [ ("p", [ 1; 1 ]); ("p", [ 1; 2 ]); ("p", [ 2; 2 ]); ("s", [ 2 ]) ]
  in
  check_same_answers db (parse "q(X) :- p(X, X).");
  check_same_answers db (parse "q(X) :- p(X, X), s(X).");
  check_same_answers db (parse "q(X) :- p(1, X).");
  check_same_answers db (parse "q() :- p(1, 1).");
  check_same_answers db (parse "q() :- p(3, 3).")

let test_cross_product () =
  let db = db_of_facts [ ("p", [ 1; 2 ]); ("r", [ 3; 4 ]); ("r", [ 5; 6 ]) ] in
  check_same_answers db (parse "q(X, Y) :- p(X, 2), r(Y, Z).")

let test_missing_relation () =
  let db = db_of_facts [ ("p", [ 1; 2 ]) ] in
  let q = parse "q(X) :- p(X, Y), nosuch(Y)." in
  let got = Exec.answers (Interned.of_database db) q in
  Alcotest.(check int) "empty on missing relation" 0 (Relation.cardinality got)

(* -- radix partitioning at the threshold edge ----------------------- *)

let test_radix_threshold_edge () =
  (* r0 has exactly 64 selected rows; with the threshold at 63 the join
     radix-partitions, at 64 it does not.  Both must agree with the
     oracle, and the partition counter must move only in the first
     case. *)
  let rng = Prng.create 7 in
  let facts =
    List.init 64 (fun i -> ("big", [ i; Prng.int rng 8 ]))
    @ List.init 8 (fun i -> ("small", [ i ]))
  in
  let db = db_of_facts facts in
  let q = parse "q(X, Y) :- small(Y), big(X, Y)." in
  let partitions = Metrics.counter "vplan_join_partitions_total" in
  let before = Metrics.value partitions in
  check_same_answers ~radix_threshold:63 db q;
  let after_radix = Metrics.value partitions in
  Alcotest.(check bool) "radix path taken below threshold" true
    (after_radix >= before + Exec.radix_partitions);
  check_same_answers ~radix_threshold:64 db q;
  Alcotest.(check int) "no radix at threshold" after_radix (Metrics.value partitions)

(* -- budget truncation mid-probe ------------------------------------ *)

let test_budget_truncation () =
  let facts = List.init 100 (fun i -> ("r", [ i mod 10; i ])) in
  let db = db_of_facts (("s", [ 0 ]) :: facts) in
  let q = parse "q(X, Y) :- s(X), r(X, Y)." in
  let budget = Budget.create ~max_steps:5 () in
  (match Exec.answers ~budget (Interned.of_database db) q with
  | _ -> Alcotest.fail "expected Step_limit"
  | exception Vplan_error.Error (Vplan_error.Step_limit { limit }) ->
      Alcotest.(check int) "limit recorded" 5 limit);
  (* an ample budget leaves the result intact *)
  let budget = Budget.create ~max_steps:100_000 () in
  let got = Exec.answers ~budget (Interned.of_database db) q in
  Alcotest.(check bool) "ample budget: oracle answer" true
    (Relation.equal (Eval.answers db q) got)

(* -- counters -------------------------------------------------------- *)

let test_counters_move () =
  let facts = List.init 50 (fun i -> ("r", [ i mod 5; i ])) in
  let db = db_of_facts (("s", [ 1 ]) :: ("s", [ 2 ]) :: facts) in
  let q = parse "q(X, Y) :- s(X), r(X, Y)." in
  let build = Metrics.counter "vplan_join_build_rows" in
  let probe = Metrics.counter "vplan_join_probe_rows" in
  let b0 = Metrics.value build and p0 = Metrics.value probe in
  ignore (Exec.answers (Interned.of_database db) q);
  Alcotest.(check bool) "build rows counted" true (Metrics.value build > b0);
  Alcotest.(check bool) "probe rows counted" true (Metrics.value probe > p0)

(* -- QCheck: oracle equivalence on random databases and queries ------ *)

let prop_oracle_equivalence =
  QCheck2.Test.make ~count:300 ~name:"Exec.answers = Eval.answers"
    QCheck2.Gen.(pair Qcheck_gens.gen_query Qcheck_gens.gen_database)
    (fun (q, db) ->
      let expected = Eval.answers db q in
      let t = Interned.of_database db in
      Relation.equal expected (Exec.answers t q)
      && Relation.equal expected (Exec.answers ~semijoin:true t q)
      && Relation.equal expected (Exec.answers ~semijoin:false t q)
      && Relation.equal expected (Exec.answers ~radix_threshold:1 t q))

(* -- QCheck: the observer effect of operator profiles ----------------
   Attaching a profile (and estimate callbacks) never changes the
   answer, the profile's actual row counts agree with the answer the
   plain run produces, and every node is internally consistent. *)

let prop_profile_transparent =
  QCheck2.Test.make ~count:300 ~name:"profiled Exec.answers = plain"
    QCheck2.Gen.(pair Qcheck_gens.gen_query Qcheck_gens.gen_database)
    (fun (q, db) ->
      let t = Interned.of_database db in
      let plain = Exec.answers t q in
      let est = Estimate.of_stats (Stats.collect db) in
      let estimate = Estimate.cardinality est in
      let p = Profile.create ~name:"prop" () in
      let profiled = Exec.answers ~profile:p ~estimate t q in
      let root = Profile.finish p in
      let nodes = Profile.preorder root in
      let exec =
        List.find_opt (fun n -> n.Profile.op = "exec") nodes
      in
      Relation.equal plain profiled
      (* the exec node's output is the deduplicated answer count *)
      && (match exec with
         | Some n -> n.Profile.rows_out = Relation.cardinality plain
         | None -> false)
      (* per-node sanity: recorded row counts are never negative beyond
         the -1 sentinel, durations never negative *)
      && List.for_all
           (fun n ->
             n.Profile.rows_out >= -1
             && n.Profile.rows_in >= -1
             && n.Profile.dur_ms >= 0.)
           nodes)

let suite =
  [
    Alcotest.test_case "interning roundtrip" `Quick test_intern_roundtrip;
    Alcotest.test_case "chain join agrees with oracle" `Quick test_chain_join;
    Alcotest.test_case "repeated vars and constants" `Quick test_repeated_vars_and_constants;
    Alcotest.test_case "cross product" `Quick test_cross_product;
    Alcotest.test_case "missing relation is empty" `Quick test_missing_relation;
    Alcotest.test_case "radix partitioning at threshold edge" `Quick test_radix_threshold_edge;
    Alcotest.test_case "budget truncation mid-probe" `Quick test_budget_truncation;
    Alcotest.test_case "join counters move" `Quick test_counters_move;
    QCheck_alcotest.to_alcotest prop_oracle_equivalence;
    QCheck_alcotest.to_alcotest prop_profile_transparent;
  ]
