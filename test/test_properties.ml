(* Property-based tests (QCheck) tying the symbolic machinery (containment
   mappings, expansion, CoreCover) to the relational semantics (evaluation
   over concrete databases). *)

open Vplan
open Qcheck_gens
module Gen = QCheck2.Gen

(* A fixed default seed keeps the suite deterministic; set QCHECK_SEED to
   explore a different region of the space. *)
let seed =
  match int_of_string_opt (try Sys.getenv "QCHECK_SEED" with Not_found -> "") with
  | Some s -> s
  | None -> 0x5eed

let make_test ?(count = 250) ~name gen print prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| seed |])
    (QCheck2.Test.make ~count ~name ~print gen prop)

(* Containment is sound w.r.t. evaluation: Q1 ⊑ Q2 implies Q1(D) ⊆ Q2(D). *)
let containment_sound =
  let gen = Gen.(triple gen_query gen_query gen_database) in
  make_test ~name:"containment sound w.r.t. evaluation" gen
    (fun (q1, q2, db) -> print_query q1 ^ " vs " ^ print_query q2 ^ " db " ^ string_of_int (Database.total_size db))
    (fun (q1, q2, db) ->
      (* only comparable when head arities match *)
      if Atom.arity q1.Query.head <> Atom.arity q2.Query.head then true
      else if not (Containment.is_contained q1 q2) then true
      else Relation.subset (Eval.answers db q1) (Eval.answers db q2))

(* Chandra-Merlin completeness via the canonical database: Q1 ⊑ Q2 iff the
   frozen head of Q1 is an answer of Q2 on D_Q1. *)
let containment_canonical =
  let gen = Gen.pair gen_query gen_query in
  make_test ~name:"containment = canonical-database test" gen
    (fun (q1, q2) -> print_query q1 ^ " vs " ^ print_query q2)
    (fun (q1, q2) ->
      if Atom.arity q1.Query.head <> Atom.arity q2.Query.head then true
      else begin
        let c = Canonical.freeze q1 in
        let frozen_head =
          List.map (Canonical.frozen_term c) q1.Query.head.Atom.args
        in
        let semantic =
          Relation.mem frozen_head (Eval.answers (Canonical.database c) q2)
        in
        Containment.is_contained q1 q2 = semantic
      end)

(* The printer and the parser are inverse on generated queries. *)
let parser_roundtrip =
  make_test ~name:"pp/parse roundtrip" gen_query print_query (fun q ->
      match Parser.parse_rule (Query.to_string q ^ ".") with
      | Ok q' -> Query.equal q q'
      | Error _ -> false)

let containment_reflexive =
  make_test ~name:"containment reflexive" gen_query print_query (fun q ->
      Containment.is_contained q q)

let isomorphic_implies_equivalent =
  let gen = Gen.pair gen_query gen_query in
  make_test ~name:"isomorphic implies equivalent" gen
    (fun (q1, q2) -> print_query q1 ^ " vs " ^ print_query q2)
    (fun (q1, q2) ->
      (not (Containment.isomorphic q1 q2)) || Containment.equivalent q1 q2)

let minimize_correct =
  make_test ~name:"minimize: equivalent, minimal, idempotent" gen_query print_query
    (fun q ->
      let m = Minimize.minimize q in
      Containment.equivalent q m && Minimize.is_minimal m
      && Query.equal (Minimize.minimize m) m
      && List.length m.Query.body <= List.length (Query.dedup_body q).Query.body)

let minimize_semantics_preserved =
  let gen = Gen.pair gen_query gen_database in
  make_test ~name:"minimize preserves answers" gen
    (fun (q, db) -> print_query q ^ " db " ^ string_of_int (Database.total_size db))
    (fun (q, db) ->
      Relation.equal (Eval.answers db q) (Eval.answers db (Minimize.minimize q)))

(* Tuple-cores are unique for minimal queries (Lemma 4.2). *)
let tuple_core_unique =
  let gen = Gen.pair gen_query (gen_views ~max_views:3 ~max_atoms:2) in
  make_test ~name:"tuple-core uniqueness (Lemma 4.2)" gen print_instance
    (fun (query, views) ->
      let query = Minimize.minimize query in
      List.for_all
        (fun tv -> List.length (Tuple_core.compute_all_maximal ~query tv) = 1)
        (View_tuple.compute ~query views))

(* CoreCover soundness: every produced rewriting is an equivalent
   rewriting (symbolic check). *)
let corecover_sound =
  let gen = Gen.pair gen_query (gen_views ~max_views:3 ~max_atoms:2) in
  make_test ~count:150 ~name:"CoreCover produces equivalent rewritings" gen print_instance
    (fun (query, views) ->
      let r = Corecover.all_minimal ~query ~views () in
      List.for_all (Expansion.is_equivalent_rewriting ~views ~query) r.rewritings)

(* Closed-world end-to-end: a rewriting evaluated over materialized views
   computes the query's answer on every base instance. *)
let corecover_closed_world =
  let gen = Gen.triple gen_query (gen_views ~max_views:3 ~max_atoms:2) gen_database in
  make_test ~count:150 ~name:"rewritings compute the query answer (closed world)" gen
    print_with_db
    (fun (query, views, base) ->
      let r = Corecover.all_minimal ~query ~views () in
      match r.rewritings with
      | [] -> true
      | rewritings ->
          let truth = Eval.answers base query in
          let view_db = Materialize.views base views in
          List.for_all
            (fun p -> Relation.equal truth (Materialize.answers_via_rewriting view_db p))
            rewritings)

(* CoreCover agrees with the naive Theorem 3.1 search on existence and on
   the minimum subgoal count. *)
let corecover_matches_naive =
  let gen = Gen.pair gen_query (gen_views ~max_views:2 ~max_atoms:2) in
  make_test ~count:60 ~name:"CoreCover matches the naive GMR search" gen print_instance
    (fun (query, views) ->
      let cc = (Corecover.gmrs ~query ~views ()).rewritings in
      let naive = Naive.gmrs ~query ~views in
      match (cc, naive) with
      | [], [] -> true
      | p :: _, n :: _ -> List.length p.Query.body = List.length n.Query.body
      | _, _ -> false)

(* GMRs never have more subgoals than any other minimal rewriting. *)
let gmr_minimum =
  let gen = Gen.pair gen_query (gen_views ~max_views:3 ~max_atoms:2) in
  make_test ~name:"GMRs have minimum size among minimal rewritings" gen print_instance
    (fun (query, views) ->
      let gmrs = (Corecover.gmrs ~query ~views ()).rewritings in
      let minimal = (Corecover.all_minimal ~query ~views ()).rewritings in
      match gmrs with
      | [] -> minimal = []
      | g :: _ ->
          let gsize = List.length g.Query.body in
          List.for_all (fun (p : Query.t) -> gsize <= List.length p.body) minimal)

(* MiniCon produces contained rewritings. *)
let minicon_contained =
  let gen = Gen.pair gen_query (gen_views ~max_views:3 ~max_atoms:2) in
  make_test ~count:60 ~name:"MiniCon rewritings are contained" gen print_instance
    (fun (query, views) ->
      let r = Minicon.run ~query ~views () in
      List.for_all (Expansion.expansion_contained_in_query ~views ~query) r.rewritings)

(* Bucket (equivalent mode) agrees with CoreCover on existence. *)
let bucket_agrees =
  let gen = Gen.pair gen_query (gen_views ~max_views:2 ~max_atoms:2) in
  make_test ~count:60 ~name:"bucket existence agrees with CoreCover" gen print_instance
    (fun (query, views) ->
      let b = Bucket.run ~mode:`Equivalent ~query ~views () in
      let c = Corecover.gmrs ~query ~views () in
      (b.rewritings <> []) = (c.rewritings <> []))

(* Both cardinality sources of a random instance: the materialized
   relations themselves, and statistics collected over them. *)
let sources db = [ M2.exact db; M2.estimated (Estimate.of_stats (Stats.collect db)) ]

let exhaustive src body =
  List.fold_left
    (fun acc o -> Float.min acc (M2.cost src o))
    Float.infinity (Orderings.permutations body)

(* M2's subset DP agrees exactly with exhaustive permutation search, for
   either source (the estimated source's canonical profile fold makes
   the order cost well-defined, so the equality is exact there too). *)
let m2_dp_exact =
  let gen = Gen.pair gen_query gen_database in
  make_test ~name:"M2 DP = exhaustive" gen
    (fun (q, db) -> print_query q ^ " db " ^ string_of_int (Database.total_size db))
    (fun (q, db) ->
      let body = (Query.dedup_body q).Query.body in
      List.for_all
        (fun src ->
          match M2.optimal src body with
          | Some (order, dp) -> dp = exhaustive src body && M2.cost src order = dp
          | None -> false)
        (sources db))

(* The memo and the branch-and-bound pruning are pure optimizations: with
   a shared memo (probed twice to exercise reuse) and with a bound just
   above the optimum, the DP still returns the exhaustive optimum — and a
   bound at the optimum prunes everything.  Both sources. *)
let m2_memo_pruned_exact =
  let gen = Gen.pair gen_query gen_database in
  make_test ~count:150 ~name:"M2 memoized + pruned DP = exhaustive" gen
    (fun (q, db) -> print_query q ^ " db " ^ string_of_int (Database.total_size db))
    (fun (q, db) ->
      let body = (Query.dedup_body q).Query.body in
      let memo = Subplan.create () in
      List.for_all
        (fun src ->
          let ex = exhaustive src body in
          let cost_of = function Some (_, c) -> c | None -> Float.nan in
          cost_of (M2.optimal src body) = ex
          && cost_of (M2.optimal src body) = ex
          && cost_of (M2.optimal ~bound:(Float.succ ex) src body) = ex
          && M2.optimal ~bound:ex src body = None)
        (M2.exact ~memo db :: sources db))

(* The connected DP is exact for its search space: it returns the minimum
   over exactly the connected-prefix orderings (so whenever some optimal
   ordering is connected — the common case on connected join graphs — it
   agrees with the unrestricted [optimal]), and [None] exactly when no
   connected ordering exists. *)
let m2_connected_exact =
  let connected_prefix = function
    | [] -> true
    | first :: rest ->
        let rec go seen = function
          | [] -> true
          | (a : Atom.t) :: tl ->
              List.exists (fun x -> Names.Sset.mem x seen) (Atom.vars a)
              && go (Names.Sset.union seen (Atom.var_set a)) tl
        in
        go (Atom.var_set first) rest
  in
  let gen = Gen.pair gen_query gen_database in
  make_test ~count:150 ~name:"M2 connected DP exact over connected orderings" gen
    (fun (q, db) -> print_query q ^ " db " ^ string_of_int (Database.total_size db))
    (fun (q, db) ->
      let body = (Query.dedup_body q).Query.body in
      let src = M2.exact db in
      let connected = List.filter connected_prefix (Orderings.permutations body) in
      match M2.optimal ~connected:true src body with
      | None -> connected = []
      | Some (order, cost) ->
          connected_prefix order
          && cost = M2.cost src order
          && cost
             = List.fold_left (fun acc o -> Float.min acc (M2.cost src o)) Float.infinity connected
          && cost >= snd (Option.get (M2.optimal src body)))

(* The selection engine returns exactly what the unranked, unpruned
   sequential fold keeps — the minimum by (optimal cost, position) —
   with the same order and cost, for either source, any domain count and
   either ranking catalog: a scan of the relations, or statistics.  This
   is what lets ranking and pruning change without changing a plan. *)
let best_m2_parallel_deterministic =
  let gen = Gen.(pair (list_size (int_range 1 5) (gen_body ~max_atoms:3)) gen_database) in
  make_test ~count:60 ~name:"best_m2: parallel = sequential" gen
    (fun (bodies, db) ->
      String.concat " | "
        (List.map (fun b -> String.concat "," (List.map Atom.to_string b)) bodies)
      ^ " db " ^ string_of_int (Database.total_size db))
    (fun (bodies, db) ->
      let head = Atom.make "q" [] in
      let candidates = List.map (fun b -> Query.make_exn head b) bodies in
      let stats_est = Estimate.of_stats (Stats.collect db) in
      let fold src =
        List.fold_left
          (fun best (p : Query.t) ->
            let order, cost = Option.get (M2.optimal src p.Query.body) in
            match best with
            | Some (_, _, c) when c <= cost -> best
            | _ -> Some (p, order, cost))
          None candidates
      in
      List.for_all
        (fun (fresh_src, oracle_src) ->
          let oracle = fold oracle_src in
          List.for_all
            (fun (rank, domains) ->
              match (oracle, Select.m2 ~domains ~rank (fresh_src ()) candidates) with
              | None, None -> true
              | Some (p, order, cost), Some c ->
                  c.Select.cost = cost && c.Select.rewriting == p
                  && List.equal Atom.equal c.Select.plan order
              | _ -> false)
            [
              (Estimate.analyze db, 1);
              (Estimate.analyze db, 4);
              (stats_est, 1);
              (stats_est, 4);
            ])
        [
          ((fun () -> M2.exact ~memo:(Subplan.create ()) db), M2.exact db);
          ((fun () -> M2.estimated stats_est), M2.estimated stats_est);
        ])

(* M3 plans never change the answer, and the heuristic never costs more
   than the supplementary strategy. *)
let m3_correct_and_dominant =
  let gen = Gen.triple gen_query (gen_views ~max_views:2 ~max_atoms:2) gen_database in
  make_test ~count:60 ~name:"M3 plans correct; heuristic <= supplementary" gen print_with_db
    (fun (query, views, base) ->
      let r = Corecover.all_minimal ~query ~views () in
      match r.rewritings with
      | [] -> true
      | (p : Query.t) :: _ ->
          let view_db = Materialize.views base views in
          let truth = Eval.answers base query in
          let suppl = M3.supplementary ~head:p.head p.body in
          let heur = M3.heuristic ~views ~query ~head:p.head p.body in
          Relation.equal truth (M3.answers view_db ~head:p.head suppl)
          && Relation.equal truth (M3.answers view_db ~head:p.head heur)
          && M3.cost_of_plan view_db heur <= M3.cost_of_plan view_db suppl)

(* Inverse rules: certain answers are sound (never exceed the true
   answer) and agree with MiniCon's maximally-contained union. *)
let inverse_rules_sound_and_complete =
  let gen = Gen.triple gen_query (gen_views ~max_views:3 ~max_atoms:2) gen_database in
  make_test ~count:120 ~name:"inverse rules = MiniCon MCR, both sound" gen print_with_db
    (fun (query, views, base) ->
      let view_db = Materialize.views base views in
      let certain = Inverse_rules.certain_answers ~views ~query view_db in
      let truth = Eval.answers base query in
      Relation.subset certain truth
      &&
      match Minicon.maximally_contained ~query ~views () with
      | None -> Relation.cardinality certain = 0
      | Some u -> Relation.equal certain (Eval.answers_ucq view_db u))

(* When an equivalent rewriting exists, certain answers are complete. *)
let certain_complete_under_equivalence =
  let gen = Gen.triple gen_query (gen_views ~max_views:3 ~max_atoms:2) gen_database in
  make_test ~count:120 ~name:"certain answers complete when equivalent rewriting exists"
    gen print_with_db
    (fun (query, views, base) ->
      if not (Corecover.has_rewriting ~query ~views) then true
      else
        let view_db = Materialize.views base views in
        Relation.equal
          (Inverse_rules.certain_answers ~views ~query view_db)
          (Eval.answers base query))

(* UCQ containment is sound w.r.t. evaluation. *)
let ucq_containment_sound =
  let gen =
    Gen.(triple (pair gen_query gen_query) (pair gen_query gen_query) gen_database)
  in
  make_test ~name:"UCQ containment sound w.r.t. evaluation" gen
    (fun ((a, b), (c, d), _) ->
      String.concat " | " (List.map print_query [ a; b; c; d ]))
    (fun ((a, b), (c, d), db) ->
      match (Ucq.make [ a; b ], Ucq.make [ c; d ]) with
      | Ok u1, Ok u2 ->
          if Ucq.head_arity u1 <> Ucq.head_arity u2 then true
          else if not (Ucq_containment.is_contained u1 u2) then true
          else Relation.subset (Eval.answers_ucq db u1) (Eval.answers_ucq db u2)
      | _ -> true)

(* UCQ minimization preserves semantics. *)
let ucq_minimize_preserves =
  let gen = Gen.(pair (list_size (int_range 1 3) gen_query) gen_database) in
  make_test ~name:"UCQ minimize preserves answers" gen
    (fun (qs, _) -> String.concat " | " (List.map print_query qs))
    (fun (qs, db) ->
      match Ucq.make qs with
      | Error _ -> true
      | Ok u ->
          let m = Ucq_containment.minimize u in
          Ucq_containment.equivalent u m
          && Relation.equal (Eval.answers_ucq db u) (Eval.answers_ucq db m))

(* The planner's one-call API agrees with direct evaluation. *)
let planner_end_to_end =
  let gen = Gen.triple gen_query (gen_views ~max_views:3 ~max_atoms:2) gen_database in
  make_test ~count:120 ~name:"planner answer_via_views is sound/complete" gen print_with_db
    (fun (query, views, base) ->
      let problem = { Planner.query; views } in
      let truth = Eval.answers base query in
      match Planner.answer_via_views ~cost_model:`M2 problem ~base with
      | `Equivalent (_, answer) -> Relation.equal truth answer
      | `Fallback_certain answer -> Relation.subset answer truth
      | `No_rewriting -> true)

(* Order-constraint closure: implication is sound and unsatisfiability is
   real, checked against exhaustive small integer assignments. *)
let order_constraint_sound =
  let gen_term =
    Gen.frequency
      [
        (3, Gen.map (fun x -> Term.Var x) (Gen.oneofl [ "A"; "B"; "C" ]));
        (1, Gen.map (fun n -> Term.Cst (Term.Int n)) (Gen.int_range 0 3));
      ]
  in
  let gen_constr =
    let open Gen in
    let* rel = oneofl [ Order_constraint.Le; Order_constraint.Lt; Order_constraint.Eq ] in
    let* left = gen_term in
    let* right = gen_term in
    return { Order_constraint.rel; left; right }
  in
  let gen = Gen.(pair (list_size (int_range 1 4) gen_constr) gen_constr) in
  let print (cs, goal) =
    Format.asprintf "%a |= %a"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " & ")
         Order_constraint.pp_constr)
      cs Order_constraint.pp_constr goal
  in
  make_test ~name:"order-constraint implication sound" gen print (fun (cs, goal) ->
      let assignments =
        (* all assignments of {A,B,C} to 0..3 *)
        List.concat_map
          (fun a ->
            List.concat_map
              (fun b -> List.map (fun c -> (a, b, c)) [ 0; 1; 2; 3 ])
              [ 0; 1; 2; 3 ])
          [ 0; 1; 2; 3 ]
      in
      let value (a, b, c) = function
        | Term.Var "A" -> Term.Int a
        | Term.Var "B" -> Term.Int b
        | Term.Var "C" -> Term.Int c
        | Term.Cst k -> k
        | Term.Var _ -> Term.Int 0
      in
      let satisfies assignment (k : Order_constraint.constr) =
        Order_constraint.satisfies_ground k.rel (value assignment k.left)
          (value assignment k.right)
      in
      match Order_constraint.of_list cs with
      | Error `Unsatisfiable ->
          (* no small-integer assignment may satisfy all constraints *)
          not
            (List.exists (fun s -> List.for_all (satisfies s) cs) assignments)
      | Ok closure ->
          (not (Order_constraint.implies closure goal))
          || List.for_all
               (fun s -> (not (List.for_all (satisfies s) cs)) || satisfies s goal)
               assignments)

(* CCQ containment is sound w.r.t. comparison-aware evaluation. *)
let ccq_containment_sound =
  let comparison_atom =
    let open Gen in
    let* pred = oneofl [ "le"; "lt" ] in
    let* x = oneofl var_pool in
    let* y =
      frequency
        [ (3, map (fun v -> Term.Var v) (oneofl var_pool));
          (1, map (fun n -> Term.Cst (Term.Int n)) (int_range 0 3)) ]
    in
    return (Atom.make pred [ Term.Var x; y ])
  in
  let gen_ccq =
    let open Gen in
    let* base = gen_query in
    let* comparisons = list_size (int_range 0 2) comparison_atom in
    (* keep only range-restricted comparisons *)
    let bound = Names.sset_of_list (Query.vars base) in
    let comparisons =
      List.filter
        (fun a -> List.for_all (fun x -> Names.Sset.mem x bound) (Atom.vars a))
        comparisons
    in
    return (Query.make_exn base.Query.head (base.Query.body @ comparisons))
  in
  let gen = Gen.(triple gen_ccq gen_ccq gen_database) in
  make_test ~count:150 ~name:"CCQ containment sound w.r.t. evaluation" gen
    (fun (q1, q2, _) -> print_query q1 ^ " vs " ^ print_query q2)
    (fun (q1, q2, db) ->
      if Atom.arity q1.Query.head <> Atom.arity q2.Query.head then true
      else if not (Ccq.is_contained q1 q2) then true
      else Relation.subset (Ccq.answers db q1) (Ccq.answers db q2))

(* Lemma 4.1: for a minimal query and a rewriting over view tuples, some
   containment mapping from the query to the rewriting's expansion is
   injective and the identity on the rewriting's variables. *)
let lemma_4_1 =
  let gen = Gen.pair gen_query (gen_views ~max_views:3 ~max_atoms:2) in
  make_test ~count:100 ~name:"Lemma 4.1: identity/injective mapping exists" gen
    print_instance
    (fun (query, views) ->
      let r = Corecover.all_minimal ~query ~views () in
      let qm = r.Corecover.minimized_query in
      List.for_all
        (fun (p : Vplan.Query.t) ->
          match Expansion.expand ~views p with
          | Error `Unsatisfiable -> false
          | Ok pexp ->
              let qm_vars = Query.vars qm in
              let p_vars = Names.sset_of_list (Query.vars p) in
              Containment.mappings ~from_q:qm ~to_q:pexp
              |> List.exists (fun phi ->
                     let identity_on_shared =
                       List.for_all
                         (fun x ->
                           (not (Names.Sset.mem x p_vars))
                           ||
                           match Subst.find x phi with
                           | None -> true
                           | Some t -> Term.equal t (Term.Var x))
                         qm_vars
                     in
                     identity_on_shared && Subst.is_injective_on phi qm_vars))
        r.rewritings)

(* Lemma 3.2: normalization to view-tuple form preserves the rewriting
   property and containment. *)
let lemma_3_2 =
  let gen = Gen.pair gen_query (gen_views ~max_views:3 ~max_atoms:2) in
  make_test ~count:100 ~name:"Lemma 3.2: view-tuple normalization" gen print_instance
    (fun (query, views) ->
      let r = Corecover.all_minimal ~query ~views () in
      List.for_all
        (fun p ->
          match Normalize.to_view_tuple_form ~views ~query p with
          | None -> false
          | Some p' ->
              Containment.is_contained p' p
              && Expansion.is_equivalent_rewriting ~views ~query p')
        r.rewritings)

(* Theorem 4.1: a query over view tuples is an equivalent rewriting iff
   the union of its tuple-cores covers the (minimal) query's subgoals. *)
let theorem_4_1 =
  let gen =
    Gen.(triple gen_query (gen_views ~max_views:3 ~max_atoms:2) (int_range 0 1000))
  in
  make_test ~count:150 ~name:"Theorem 4.1: cover iff equivalent rewriting" gen
    (fun (query, views, pick) -> print_instance (query, views) ^ " pick " ^ string_of_int pick)
    (fun (query, views, pick) ->
      let qm = Minimize.minimize query in
      let tuples = View_tuple.compute ~query:qm views in
      if tuples = [] then true
      else begin
        (* pseudo-randomly choose a subset of the view tuples *)
        let chosen = List.filteri (fun i _ -> (pick lsr i) land 1 = 1) tuples in
        if chosen = [] then true
        else
          match Query.make qm.Query.head (List.map (fun tv -> tv.View_tuple.atom) chosen) with
          | Error _ -> true (* unsafe: a head variable not covered *)
          | Ok p ->
              let covered =
                List.fold_left
                  (fun acc tv -> acc lor (Tuple_core.compute ~query:qm tv).Tuple_core.mask)
                  0 chosen
              in
              let universe = (1 lsl List.length qm.Query.body) - 1 in
              Expansion.is_equivalent_rewriting ~views ~query p
              = (covered land universe = universe)
      end)

(* View-set minimization preserves answering power and is minimal. *)
let view_selection_correct =
  let gen = Gen.pair gen_query (gen_views ~max_views:4 ~max_atoms:2) in
  make_test ~count:80 ~name:"minimal answering sets are minimal and sufficient" gen
    print_instance
    (fun (query, views) ->
      match View_selection.minimal_answering_set ~query ~views with
      | None -> not (Corecover.has_rewriting ~query ~views)
      | Some kept ->
          View_selection.is_answering_set ~query kept
          && List.for_all
               (fun v ->
                 not
                   (View_selection.is_answering_set ~query
                      (List.filter (fun v' -> v' != v) kept)))
               kept)

(* Datalog: semi-naive equals naive, and magic sets preserve answers, on
   random graphs. *)
let datalog_engines_agree =
  let gen_edges =
    Gen.(list_size (int_range 0 12) (pair (int_range 0 5) (int_range 0 5)))
  in
  let tc =
    Vplan.Program.make_exn
      (Helpers.qs [ "path(X, Y) :- edge(X, Y)."; "path(X, Z) :- edge(X, Y), path(Y, Z)." ])
  in
  make_test ~count:100 ~name:"datalog: semi-naive = naive, magic = direct" gen_edges
    (fun edges ->
      String.concat ","
        (List.map (fun (x, y) -> Printf.sprintf "%d->%d" x y) edges))
    (fun edges ->
      let edb =
        Database.of_facts (List.map (fun (x, y) -> ("edge", [ Term.Int x; Term.Int y ])) edges)
      in
      let semi = Vplan.Seminaive.evaluate tc edb in
      let naive = Vplan.Seminaive.naive tc edb in
      Database.equal semi naive
      &&
      let queries =
        [
          Atom.make "path" [ Term.Var "X"; Term.Var "Y" ];
          Atom.make "path" [ Term.Cst (Term.Int 0); Term.Var "Y" ];
          Atom.make "path" [ Term.Var "X"; Term.Cst (Term.Int 3) ];
          Atom.make "path" [ Term.Cst (Term.Int 1); Term.Cst (Term.Int 4) ];
        ]
      in
      List.for_all
        (fun query ->
          Relation.equal
            (Vplan.Magic.answers tc edb ~query)
            (Vplan.Recursive_views.answers_direct ~program:tc ~query edb))
        queries)

(* Set cover on random instances. *)
let set_cover_props =
  let gen =
    Gen.(
      let* n = int_range 1 6 in
      let universe = (1 lsl n) - 1 in
      let* sets = list_size (int_range 1 8) (int_range 0 universe) in
      return (universe, Array.of_list sets))
  in
  make_test ~name:"set cover: minimum covers are minimum covers" gen
    (fun (u, sets) ->
      Printf.sprintf "universe %d sets [%s]" u
        (String.concat ";" (Array.to_list (Array.map string_of_int sets))))
    (fun (universe, sets) ->
      let covers = Set_cover.minimum_covers ~universe sets in
      let irr = Set_cover.irredundant_covers ~universe sets in
      List.for_all (Set_cover.is_cover ~universe sets) covers
      && List.for_all (Set_cover.is_irredundant ~universe sets) irr
      && (covers = [] || irr <> [])
      &&
      match covers with
      | [] -> irr = []
      | c :: _ ->
          let k = List.length c in
          List.for_all (fun c' -> List.length c' = k) covers
          && List.for_all (fun i -> List.length i >= k) irr)

(* The CoreCover performance toggles — view grouping, indexed evaluation,
   signature/mask bucketing, parallel fan-out — are pure optimizations:
   every configuration must produce the same rewritings on generated
   star/chain workloads. *)
let corecover_configs_agree =
  let gen =
    Gen.(
      triple
        (oneofl [ Generator.Star; Generator.Chain ])
        (int_range 2 25) (int_range 0 10_000))
  in
  make_test ~count:40 ~name:"CoreCover configurations produce identical rewritings" gen
    (fun (shape, num_views, seed) ->
      Printf.sprintf "%s views=%d seed=%d"
        (match shape with Generator.Star -> "star" | _ -> "chain")
        num_views seed)
    (fun (shape, num_views, seed) ->
      let config = { Generator.default with shape; num_views; seed } in
      match Generator.generate_with_rewriting ~max_attempts:50 config with
      | exception Failure _ -> true
      | inst ->
          let query = inst.Generator.query and views = inst.views in
          let rewritings r =
            List.sort Query.compare r.Corecover.rewritings
          in
          let reference = rewritings (Corecover.gmrs ~query ~views ()) in
          List.for_all
            (fun variant -> List.equal Query.equal reference (rewritings (variant ())))
            [
              (fun () -> Corecover.gmrs ~group_views:false ~query ~views ());
              (fun () -> Corecover.gmrs ~indexed:false ~query ~views ());
              (fun () -> Corecover.gmrs ~buckets:false ~query ~views ());
              (fun () -> Corecover.gmrs ~domains:4 ~query ~views ());
            ])

(* Budgets make CoreCover anytime, never unsound: whatever a step-limited
   run returns is a subset of the unbudgeted run's rewritings, and a run
   that was cut short is flagged as truncated (a complete one must return
   everything). *)
let corecover_budget_anytime =
  let gen =
    Gen.(
      triple
        (oneofl [ Generator.Star; Generator.Chain ])
        (int_range 2 25)
        (pair (int_range 0 10_000) (int_range 1 2_000)))
  in
  make_test ~count:40 ~name:"CoreCover under a step budget returns a sound subset" gen
    (fun (shape, num_views, (seed, max_steps)) ->
      Printf.sprintf "%s views=%d seed=%d max_steps=%d"
        (match shape with Generator.Star -> "star" | _ -> "chain")
        num_views seed max_steps)
    (fun (shape, num_views, (seed, max_steps)) ->
      let config = { Generator.default with shape; num_views; seed } in
      match Generator.generate_with_rewriting ~max_attempts:50 config with
      | exception Failure _ -> true
      | inst ->
          let query = inst.Generator.query and views = inst.views in
          let reference = (Corecover.gmrs ~query ~views ()).Corecover.rewritings in
          let budget = Budget.create ~max_steps () in
          let r = Corecover.gmrs ~budget ~query ~views () in
          List.for_all
            (fun p -> List.exists (Query.equal p) reference)
            r.Corecover.rewritings
          &&
          match r.Corecover.completeness with
          | Corecover.Complete ->
              List.equal Query.equal reference r.Corecover.rewritings
          | Corecover.Truncated e -> Vplan_error.is_resource e)

let suite =
  [
    parser_roundtrip;
    containment_sound;
    containment_canonical;
    containment_reflexive;
    isomorphic_implies_equivalent;
    minimize_correct;
    minimize_semantics_preserved;
    tuple_core_unique;
    corecover_sound;
    corecover_closed_world;
    corecover_matches_naive;
    gmr_minimum;
    minicon_contained;
    bucket_agrees;
    m2_dp_exact;
    m2_memo_pruned_exact;
    m2_connected_exact;
    best_m2_parallel_deterministic;
    m3_correct_and_dominant;
    inverse_rules_sound_and_complete;
    certain_complete_under_equivalence;
    ucq_containment_sound;
    ucq_minimize_preserves;
    planner_end_to_end;
    order_constraint_sound;
    ccq_containment_sound;
    lemma_4_1;
    lemma_3_2;
    theorem_4_1;
    view_selection_correct;
    datalog_engines_agree;
    set_cover_props;
    corecover_configs_agree;
    corecover_budget_anytime;
  ]
