(* Tests for the relational engine: relations, databases, evaluation and
   data generation. *)

open Vplan
open Helpers

let tuple_of_ints l = List.map (fun i -> Term.Int i) l

let test_relation_set_semantics () =
  let r = Relation.of_tuples 2 [ tuple_of_ints [ 1; 2 ]; tuple_of_ints [ 1; 2 ] ] in
  check_int "duplicates collapse" 1 (Relation.cardinality r);
  check_bool "mem" true (Relation.mem (tuple_of_ints [ 1; 2 ]) r);
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Relation.add: tuple of arity 3 into relation of arity 2") (fun () ->
      ignore (Relation.add (tuple_of_ints [ 1; 2; 3 ]) r))

let test_relation_union_subset () =
  let r1 = Relation.of_tuples 1 [ tuple_of_ints [ 1 ] ] in
  let r2 = Relation.of_tuples 1 [ tuple_of_ints [ 2 ] ] in
  let u = Relation.union r1 r2 in
  check_int "union" 2 (Relation.cardinality u);
  check_bool "subset" true (Relation.subset r1 u);
  check_bool "not subset" false (Relation.subset u r1)

let test_database_facts () =
  let db = Database.of_facts [ ("p", tuple_of_ints [ 1; 2 ]); ("r", tuple_of_ints [ 3 ]) ] in
  check_int "total size" 2 (Database.total_size db);
  Alcotest.(check (list string)) "predicates" [ "p"; "r" ] (Database.predicates db);
  check_int "facts as atoms" 2 (List.length (Database.facts db));
  Alcotest.check_raises "arity conflict"
    (Invalid_argument "Relation.add: tuple of arity 1 into relation of arity 2") (fun () ->
      ignore (Database.add_fact "p" (tuple_of_ints [ 9 ]) db))

let chain_db =
  Database.of_facts
    [
      ("e", tuple_of_ints [ 1; 2 ]);
      ("e", tuple_of_ints [ 2; 3 ]);
      ("e", tuple_of_ints [ 3; 4 ]);
      ("e", tuple_of_ints [ 2; 2 ]);
    ]

let test_eval_simple_join () =
  let query = q "q(X, Z) :- e(X, Y), e(Y, Z)." in
  let result = Oracle.Eval.answers chain_db query in
  (* paths of length 2: 1-2-3, 2-3-4, 1-2-2, 2-2-3, 2-2-2 *)
  check_int "path pairs" 5 (Relation.cardinality result);
  check_bool "contains (1,3)" true (Relation.mem (tuple_of_ints [ 1; 3 ]) result)

let test_eval_selection () =
  let query = q "q(Y) :- e(2, Y)." in
  let result = Oracle.Eval.answers chain_db query in
  check_int "constants select" 2 (Relation.cardinality result)

let test_eval_repeated_var () =
  let query = q "q(X) :- e(X, X)." in
  let result = Oracle.Eval.answers chain_db query in
  check_int "self loops" 1 (Relation.cardinality result);
  check_bool "loop is 2" true (Relation.mem (tuple_of_ints [ 2 ]) result)

let test_eval_head_constants () =
  let query = q "q(X, tag) :- e(X, X)." in
  let result = Oracle.Eval.answers chain_db query in
  check_bool "head constant in tuple" true
    (Relation.mem [ Term.Int 2; Term.Str "tag" ] result)

let test_eval_empty_relation () =
  let query = q "q(X) :- missing(X)." in
  check_int "missing relation" 0 (Relation.cardinality (Oracle.Eval.answers chain_db query))

let test_eval_cross_product () =
  (* e(X,2) matches {1,2}; e(3,Y) matches {4}: 2 x 1 combinations *)
  let query = q "q(X, Y) :- e(X, 2), e(3, Y)." in
  let result = Oracle.Eval.answers chain_db query in
  check_int "cross product" 2 (Relation.cardinality result)

let test_extend_and_project () =
  let envs = Oracle.Eval.satisfying_envs chain_db (q "q(X, Z) :- e(X, Y), e(Y, Z).").Query.body in
  check_int "all bindings" 5 (Oracle.Eval.distinct_count envs);
  let projected = Oracle.Eval.project ~onto:(Names.sset_of_list [ "X" ]) envs in
  (* X values among paths: 1, 2 *)
  check_int "projected" 2 (List.length projected)

let test_matching_count () =
  check_int "pattern count" 2
    (Oracle.Eval.matching_count chain_db (Atom.make "e" [ Term.Cst (Term.Int 2); Term.Var "Y" ]));
  check_int "relation size" 4
    (Oracle.Eval.relation_size chain_db (Atom.make "e" [ Term.Var "X"; Term.Var "Y" ]))

let test_prng_deterministic () =
  let r1 = Prng.create 7 and r2 = Prng.create 7 in
  let l1 = List.init 20 (fun _ -> Prng.int r1 1000) in
  let l2 = List.init 20 (fun _ -> Prng.int r2 1000) in
  Alcotest.(check (list int)) "same seed same stream" l1 l2;
  let r3 = Prng.create 8 in
  let l3 = List.init 20 (fun _ -> Prng.int r3 1000) in
  check_bool "different seed differs" true (l1 <> l3)

let test_prng_bounds () =
  let rng = Prng.create 3 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 7 in
    check_bool "in range" true (v >= 0 && v < 7)
  done;
  for _ = 1 to 100 do
    let v = Prng.range rng 5 9 in
    check_bool "range inclusive" true (v >= 5 && v <= 9)
  done

let test_prng_shuffle_permutes () =
  let rng = Prng.create 11 in
  let l = List.init 30 Fun.id in
  let s = Prng.shuffle rng l in
  Alcotest.(check (list int)) "same elements" l (List.sort Int.compare s)

(* Bulk load must agree with incremental insertion and beat it: one
   sort + dedup pass against n balanced-tree insertions on a
   duplicate-heavy load.  The work is measured as words allocated (each
   tree insertion copies its search path; the bulk pass builds the tree
   once), which is deterministic where wall-clock time under a loaded
   machine is not: on this input the incremental load allocates ~1.5x
   the bulk load's words, and a bulk load falling back to repeated
   [add] would allocate the same, 1.0x. *)
let test_bulk_load_guard () =
  let n = 50_000 in
  let tuples =
    (* mostly distinct (the bulk-load sweet spot) with a 10% duplicate
       tail that must still collapse *)
    List.init n (fun i ->
        tuple_of_ints [ i mod 45_000; (i mod 45_000 * 7) mod 9_973 ])
  in
  let bulk_load () = Relation.of_tuples 2 tuples in
  let incr_load () =
    List.fold_left (fun r t -> Relation.add t r) (Relation.empty 2) tuples
  in
  let words f =
    let w0 = Gc.minor_words () in
    let result = f () in
    (result, Gc.minor_words () -. w0)
  in
  let bulk, bulk_w = words bulk_load in
  let incremental, incr_w = words incr_load in
  check_bool "bulk equals incremental" true (Relation.equal bulk incremental);
  check_bool "duplicates collapsed" true (Relation.cardinality bulk < n);
  check_bool
    (Printf.sprintf "bulk allocates at most 1/1.3 of incremental (incr %.0f, bulk %.0f words)"
       incr_w bulk_w)
    true
    (incr_w /. Float.max 1. bulk_w >= 1.3)

let test_zipf_sampler () =
  let rng = Prng.create 17 in
  let draw = Datagen.zipf rng ~domain:100 ~theta:0.9 in
  let counts = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let v = draw () in
    check_bool "in domain" true (v >= 0 && v < 100);
    counts.(v) <- counts.(v) + 1
  done;
  (* heavy head: rank 0 strictly dominates the mid and tail ranks *)
  check_bool "rank 0 beats rank 50" true (counts.(0) > counts.(50));
  check_bool "rank 0 beats rank 99" true (counts.(0) > counts.(99));
  let head = counts.(0) + counts.(1) + counts.(2) in
  check_bool "head mass is skewed" true (head > 20_000 * 3 / 100)

let test_datagen_dist_columns () =
  let rng = Prng.create 23 in
  let db =
    Datagen.random_dist rng
      [
        ( { Datagen.predicate = "p"; arity = 2; tuples = 400; domain = 50 },
          [ Datagen.Uniform; Datagen.Zipf 0.9 ] );
      ]
  in
  let r = Database.find_exn "p" db in
  check_int "arity" 2 (Relation.arity r);
  check_bool "some tuples" true (Relation.cardinality r > 0);
  (* the Zipf column concentrates on few values; the uniform one spreads *)
  let distinct pos =
    Relation.fold
      (fun t acc -> Names.Sset.add (Term.const_to_string (List.nth t pos)) acc)
      r Names.Sset.empty
    |> Names.Sset.cardinal
  in
  check_bool "zipf column more concentrated" true (distinct 1 < distinct 0)

let test_datagen_shapes () =
  let rng = Prng.create 5 in
  let db =
    Datagen.random rng
      [ { Datagen.predicate = "p"; arity = 2; tuples = 50; domain = 10 } ]
  in
  let r = Database.find_exn "p" db in
  check_int "arity" 2 (Relation.arity r);
  check_bool "some tuples" true (Relation.cardinality r > 0);
  check_bool "at most requested" true (Relation.cardinality r <= 50)

let test_datagen_nonempty_witness () =
  let query = q "q(X, Z) :- p(X, Y), r(Y, Z), s(Z, X)." in
  let rng = Prng.create 13 in
  let db = Datagen.for_query_nonempty rng ~tuples:20 ~domain:50 query in
  check_bool "query satisfiable" true (Relation.cardinality (Oracle.Eval.answers db query) > 0)

let suite =
  [
    ("relation set semantics", `Quick, test_relation_set_semantics);
    ("relation union/subset", `Quick, test_relation_union_subset);
    ("database facts", `Quick, test_database_facts);
    ("eval join", `Quick, test_eval_simple_join);
    ("eval selection", `Quick, test_eval_selection);
    ("eval repeated variable", `Quick, test_eval_repeated_var);
    ("eval head constants", `Quick, test_eval_head_constants);
    ("eval missing relation", `Quick, test_eval_empty_relation);
    ("eval cross product", `Quick, test_eval_cross_product);
    ("extend and project", `Quick, test_extend_and_project);
    ("matching count", `Quick, test_matching_count);
    ("prng deterministic", `Quick, test_prng_deterministic);
    ("prng bounds", `Quick, test_prng_bounds);
    ("prng shuffle", `Quick, test_prng_shuffle_permutes);
    ("bulk load guard", `Quick, test_bulk_load_guard);
    ("zipf sampler", `Quick, test_zipf_sampler);
    ("datagen per-column distributions", `Quick, test_datagen_dist_columns);
    ("datagen shapes", `Quick, test_datagen_shapes);
    ("datagen witness", `Quick, test_datagen_nonempty_witness);
  ]
