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
      else Relation.subset (Oracle.Eval.answers db q1) (Oracle.Eval.answers db q2))

(* Chandra-Merlin completeness via the canonical database: Q1 ⊑ Q2 iff the
   frozen head of Q1 is an answer of Q2 on D_Q1. *)
let containment_canonical =
  let gen = Gen.pair gen_query gen_query in
  make_test ~name:"containment = canonical-database test" gen
    (fun (q1, q2) -> print_query q1 ^ " vs " ^ print_query q2)
    (fun (q1, q2) ->
      if Atom.arity q1.Query.head <> Atom.arity q2.Query.head then true
      else begin
        let c = Oracle.Canonical.freeze q1 in
        let frozen_head = List.map Oracle.Canonical.frozen_term q1.Query.head.Atom.args in
        let semantic =
          Relation.mem frozen_head (Oracle.Eval.answers (Oracle.Canonical.database c) q2)
        in
        Containment.is_contained q1 q2 = semantic
      end)

(* The printer and the parser are inverse on generated queries. *)
let parser_roundtrip =
  make_test ~name:"pp/parse roundtrip" gen_query print_query (fun q ->
      match Parser.parse_rule (Query.to_string q ^ ".") with
      | Ok q' -> Query.equal q q'
      | Error _ -> false)

(* [Query.to_string] renders without a formatter, byte for byte what
   [Query.pp] prints: [Int] (negative too) and [Str] constants, 0-ary
   atoms, empty bodies. *)
let query_to_string_matches_pp =
  let gen =
    Gen.(
      let const =
        oneof
          [
            map (fun i -> Term.Int i) (int_range (-30) 30000);
            map (fun s -> Term.Str s) (oneofl [ "c"; "anderson"; "x_1" ]);
          ]
      in
      let term = frequency [ (3, map (fun x -> Term.Var x) (oneofl var_pool)); (2, map (fun c -> Term.Cst c) const) ] in
      let atom =
        let* pred = oneofl [ "p"; "r2"; "v10"; "z" ] in
        let* args = list_size (int_range 0 4) term in
        return (Atom.make pred args)
      in
      let* body = list_size (int_range 0 4) atom in
      let vars = List.sort_uniq String.compare (List.concat_map Atom.vars body) in
      let* head_vars = gen_subset vars in
      let* head_consts = list_size (int_range 0 2) const in
      return
        (Query.make_exn
           (Atom.make "q"
              (List.map (fun x -> Term.Var x) head_vars @ List.map (fun c -> Term.Cst c) head_consts))
           body))
  in
  make_test ~count:500 ~name:"Query.to_string = Query.pp" gen print_query (fun q ->
      String.equal (Query.to_string q) (Format.asprintf "%a" Query.pp q))

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
      Relation.equal (Oracle.Eval.answers db q) (Oracle.Eval.answers db (Minimize.minimize q)))

(* Tuple-cores are unique for minimal queries (Lemma 4.2). *)
let tuple_core_unique =
  let gen = Gen.pair gen_query (gen_views ~max_views:3 ~max_atoms:2) in
  make_test ~name:"tuple-core uniqueness (Lemma 4.2)" gen print_instance
    (fun (query, views) ->
      let query = Minimize.minimize query in
      List.for_all
        (fun tv -> List.length (Oracle.Tuple_core.compute_all_maximal ~query tv) = 1)
        (View_tuple.compute ~query views))

(* The component search against the exhaustive enumerator: each core is
   one of the enumerator's largest maximal candidates, which for a
   minimal query is the unique core. *)
let cores_match_oracle ~query views =
  List.for_all
    (fun (tv, (core : Tuple_core.t)) ->
      let maximal = Oracle.Tuple_core.compute_all_maximal ~query tv in
      let size (c : Oracle.Tuple_core.t) = List.length c.subgoals in
      let largest = List.fold_left (fun acc c -> max acc (size c)) 0 maximal in
      List.exists
        (fun (c : Oracle.Tuple_core.t) ->
          size c = largest && c.mask = core.mask
          && List.equal Atom.equal c.subgoals core.subgoals)
        maximal)
    (Helpers.tuples_with_cores ~query views)

let tuple_cores_match_oracle_workloads =
  let shapes =
    [ ("star", Generator.Star); ("chain", Generator.Chain); ("cycle", Generator.Cycle);
      ("clique", Generator.Clique); ("path", Generator.Path);
      ("random", Generator.Random_shape) ]
  in
  let gen =
    Gen.(
      pair (triple (oneofl shapes) (int_range 1 12) (int_range 0 2))
        (triple (int_range 3 8) (int_range 0 10_000) (int_range 0 255)))
  in
  make_test ~count:200 ~name:"tuple-cores = enumerator oracle (generated, minimized)" gen
    (fun (((name, _), num_views, hidden), (subgoals, seed, keep)) ->
      Printf.sprintf "%s views=%d hidden=%d subgoals=%d seed=%d keep=%d" name num_views
        hidden subgoals seed keep)
    (fun (((_, shape), num_views, hidden), (query_subgoals, seed, keep)) ->
      let inst =
        Generator.generate
          {
            Generator.default with
            shape;
            num_views;
            nondistinguished_per_view = hidden;
            query_subgoals;
            seed;
          }
      in
      let q = inst.Generator.query in
      (* project the head onto the variables picked by [keep] *)
      let head =
        Atom.make q.Query.head.Atom.pred
          (List.filteri (fun i _ -> (keep lsr (i mod 8)) land 1 = 1) q.Query.head.Atom.args)
      in
      let query = Minimize.minimize (Query.make_exn head q.Query.body) in
      cores_match_oracle ~query inst.views)

(* Random queries with constants and repeated variables, minimized or
   not.  The doubled instances append a copy of the body with its
   nondistinguished variables renamed, and bring a view over the
   original body: the copy folds back, so the query is not minimal, and
   both copies' components compete for the view's existentials. *)
let tuple_cores_match_oracle_random =
  let doubled =
    Gen.map
      (fun (q : Query.t) ->
        let head = Query.head_vars q in
        let copy =
          Subst.of_list
            (List.filter_map
               (fun x -> if List.mem x head then None else Some (x, Term.Var (x ^ "c")))
               (Query.vars q))
        in
        let view = Query.make_exn (Atom.make "w" q.head.Atom.args) q.body in
        (Query.make_exn q.head (q.body @ List.map (Atom.apply copy) q.body), [ view ]))
      gen_query
  in
  let gen =
    Gen.(
      triple
        (oneof [ map (fun q -> (q, [])) gen_query; doubled ])
        (gen_views ~max_views:3 ~max_atoms:3) bool)
  in
  make_test ~count:300 ~name:"tuple-cores = enumerator oracle (constants, non-minimal)" gen
    (fun ((q, own), views, minimize) ->
      print_instance (q, own @ views) ^ if minimize then " (minimized)" else "")
    (fun ((query, own), views, minimize) ->
      let query = if minimize then Minimize.minimize query else query in
      cores_match_oracle ~query (own @ views))

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
          let truth = Oracle.Eval.answers base query in
          let img = Materialize.image base views in
          List.for_all
            (fun p -> Relation.equal truth (Exec.answers img p))
            rewritings)

(* CoreCover agrees with the naive Theorem 3.1 search on existence and on
   the minimum subgoal count. *)
let corecover_matches_naive =
  let gen = Gen.pair gen_query (gen_views ~max_views:2 ~max_atoms:2) in
  make_test ~count:60 ~name:"CoreCover matches the naive GMR search" gen print_instance
    (fun (query, views) ->
      let cc = (Corecover.gmrs ~query ~views ()).rewritings in
      let naive = Oracle.Naive.gmrs ~query ~views in
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
      let b = Oracle.Bucket.run ~mode:`Equivalent ~query ~views () in
      let c = Corecover.gmrs ~query ~views () in
      (b.rewritings <> []) = (c.rewritings <> []))

(* A random view image: up to three views over the base pool, some
   heads carrying a constant ([Int 1], which the base may hold, or ["h"],
   which it never does), materialized over a random base; and a body over
   the views' predicates whose arguments mix variables from a pool of
   four (so repeats are common) with constants the image holds or lacks
   (["zz"]). *)
let gen_image_case =
  let open Gen in
  let var = map (fun x -> Term.Var x) (oneofl var_pool) in
  let arg consts = frequency [ (6, var); (3, map (fun c -> Term.Cst c) (oneofl consts)) ] in
  let gen_view i =
    let* body =
      list_size (int_range 1 2)
        (let* pred, arity = oneofl pred_pool in
         let* args = list_repeat arity (arg [ Term.Int 0; Term.Int 1 ]) in
         return (Atom.make pred args))
    in
    let* chosen = gen_subset (List.concat_map Atom.vars body |> List.sort_uniq String.compare) in
    let* extra =
      frequency
        [ (1, return []); (1, map (fun c -> [ Term.Cst c ]) (oneofl [ Term.Int 1; Term.Str "h" ])) ]
    in
    let* first = bool in
    let vars = List.map (fun x -> Term.Var x) chosen in
    let args = if first then extra @ vars else vars @ extra in
    return (Query.make_exn (Atom.make ("v" ^ string_of_int i) args) body)
  in
  let* n = int_range 1 3 in
  let* views = flatten_l (List.init n gen_view) in
  let* base = gen_database in
  let* body =
    list_size (int_range 1 4)
      (let* (v : Query.t) = oneofl views in
       let consts = [ Term.Int 0; Term.Int 2; Term.Str "h"; Term.Str "zz" ] in
       let* args = list_repeat (Atom.arity v.head) (arg consts) in
       return (Atom.make v.head.Atom.pred args))
  in
  return (body, views, base)

let print_image_case (body, views, base) =
  String.concat ", " (List.map Atom.to_string body)
  ^ " || " ^ print_views views ^ " || db size " ^ string_of_int (Database.total_size base)

(* The random case's body without repeated atoms, and its image. *)
let image_case (body, views, base) =
  ((Query.dedup_body (Query.make_exn (Atom.make "q" []) body)).Query.body,
   Materialize.image base views)

(* Both cardinality sources of an image: its relations themselves, and
   statistics collected over them. *)
let sources img =
  [ M2.exact img; M2.estimated (Estimate.of_stats (Stats.collect (Interned.database img))) ]

let exhaustive src body =
  List.fold_left
    (fun acc o -> Float.min acc (M2.cost src o))
    Float.infinity (Orderings.permutations body)

(* The exact source over the image is M2 itself: every ordering's cost
   equals the relation cells plus each prefix's tuple count times its
   width, counted by the backtracking evaluator over the boxed view
   database decoded from the same image. *)
let m2_matches_eval img orders =
  let vdb = Interned.database img in
  let eval_cost order =
    let rel = List.fold_left (fun acc a -> acc + Oracle.M2.relation_cells vdb a) 0 order in
    let _, ir =
      List.fold_left2
        (fun (vars, acc) a size ->
          let vars = Names.Sset.union vars (Atom.var_set a) in
          (vars, acc + (size * max 1 (Names.Sset.cardinal vars))))
        (Names.Sset.empty, 0) order
        (Oracle.M2.intermediate_sizes vdb order)
    in
    float_of_int (rel + ir)
  in
  let src = M2.exact img in
  List.for_all (fun o -> M2.cost src o = eval_cost o) orders

let m2_image_matches_eval =
  make_test ~count:300 ~name:"M2 over the image = Eval sizes over the view database"
    gen_image_case print_image_case (fun ((body, _, _) as case) ->
      let _, img = image_case case in
      m2_matches_eval img (Orderings.permutations body))

(* The same equality where a join builds on a view relation above the
   kernel's radix threshold: every ordering below joins v onto {w} or
   {u, w}, building on its 70000 selected rows grace-partitioned.  (The
   orderings starting at v would only make the oracle enumerate 70000
   environments.) *)
let m2_image_matches_eval_radix =
  ( "M2 over the image = Eval sizes over the view database, radix build",
    `Quick,
    fun () ->
      let fact p args = (p, List.map (fun i -> Term.Int i) args) in
      let img =
        Interned.of_database
          (Database.of_facts
             ((fact "u" [ 0 ] :: List.init 4 (fun y -> fact "w" [ y; y mod 2 ]))
             @ List.init 70_000 (fun x -> fact "v" [ x; x mod 50 ])))
      in
      let rows = match Interned.find img "v" with Some r -> r.Interned.rows | None -> 0 in
      Alcotest.(check bool) "v above the radix threshold" true
        (rows > Exec.default_radix_threshold);
      let v, w, u =
        match (Parser.parse_rule_exn "q() :- v(X, Y), w(Y, Z), u(Z).").Query.body with
        | [ v; w; u ] -> (v, w, u)
        | _ -> assert false
      in
      Alcotest.(check bool) "M2 cost = Eval cost" true
        (m2_matches_eval img [ [ w; v; u ]; [ w; u; v ]; [ u; w; v ] ]) )

(* M3 over the image (the execution engine's join and projecting steps)
   is the backtracking oracle over the view relations evaluated straight
   off the base: GSR sizes, costs, bounded costs at a random bound and
   at the cost itself, and answers, for every ordering of the body under
   both strategies.  The head keeps a random subset of the body's
   variables, so the supplementary rule drops attributes and projections
   collapse rows; the heuristic tests renamings against the rewriting's
   own expansion. *)
let m3_image_matches_eval =
  let gen =
    Gen.(
      let* ((body, _, _) as case) = gen_image_case in
      let* head_vars =
        gen_subset (List.concat_map Atom.vars body |> List.sort_uniq String.compare)
      in
      let* bound = int_range 0 120 in
      return (case, head_vars, bound))
  in
  make_test ~count:150 ~name:"M3 over the image = Eval oracle" gen
    (fun (case, head_vars, bound) ->
      print_image_case case ^ " || head " ^ String.concat "," head_vars ^ " || bound "
      ^ string_of_int bound)
    (fun ((body, views, base), head_vars, bound) ->
      let img = Materialize.image base views in
      let vdb =
        List.fold_left
          (fun db (v : Query.t) -> Database.add_relation (View.name v) (Oracle.Eval.answers base v) db)
          Database.empty views
      in
      let head = Atom.make "q" (List.map (fun x -> Term.Var x) head_vars) in
      let rewriting = Query.make_exn head body in
      let heuristic =
        match Expansion.expand ~views rewriting with
        | Ok query -> [ M3.heuristic ~views ~query ~head ]
        | Error `Unsatisfiable -> []
      in
      List.for_all
        (fun order ->
          List.for_all
            (fun annotate ->
              let plan = annotate order in
              let cost = Oracle.M3.cost_of_plan vdb plan in
              M3.gsr_sizes img plan = Oracle.M3.gsr_sizes vdb plan
              && M3.cost_of_plan img plan = cost
              && List.for_all
                   (fun bound ->
                     M3.cost_of_plan_bounded img ~bound plan
                     = Oracle.M3.cost_of_plan_bounded vdb ~bound plan)
                   [ bound; cost; cost + 1 ]
              && Relation.equal (M3.answers img ~head plan) (Oracle.M3.answers vdb ~head plan))
            (M3.supplementary ~head :: heuristic))
        (Orderings.permutations body))

(* M2's subset DP agrees exactly with exhaustive permutation search, for
   either source (the estimated source's canonical profile fold makes
   the order cost well-defined, so the equality is exact there too). *)
let m2_dp_exact =
  make_test ~name:"M2 DP = exhaustive" gen_image_case print_image_case (fun case ->
      let body, img = image_case case in
      List.for_all
        (fun src ->
          match M2.optimal src body with
          | Some (order, dp) -> dp = exhaustive src body && M2.cost src order = dp
          | None -> false)
        (sources img))

(* The memo and the branch-and-bound pruning are pure optimizations: with
   a shared memo (probed twice to exercise reuse) and with a bound just
   above the optimum, the DP still returns the exhaustive optimum — and a
   bound at the optimum prunes everything.  Both sources. *)
let m2_memo_pruned_exact =
  make_test ~count:150 ~name:"M2 memoized + pruned DP = exhaustive" gen_image_case
    print_image_case (fun case ->
      let body, img = image_case case in
      let memo = Subplan.create () in
      List.for_all
        (fun src ->
          let ex = exhaustive src body in
          let cost_of = function Some (_, c) -> c | None -> Float.nan in
          cost_of (M2.optimal src body) = ex
          && cost_of (M2.optimal src body) = ex
          && cost_of (M2.optimal ~bound:(Float.succ ex) src body) = ex
          && M2.optimal ~bound:ex src body = None)
        (M2.exact ~memo img :: sources img))

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
      let src = M2.exact (Interned.of_database db) in
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
      let img = Interned.of_database db in
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
          ((fun () -> M2.exact ~memo:(Subplan.create ()) img), M2.exact img);
          ((fun () -> M2.estimated stats_est), M2.estimated stats_est);
        ])

(* Estimated costing on coded profiles is bit-identical to the
   map-based estimator (Oracle.Estimate): order costs, the DP's cost and
   order, the estimated selection's choice, cardinalities and view
   statistics.  Bodies mix [Int] constants in histogrammed columns,
   [Str] constants (in a column that then has no histogram), variables
   repeated within an atom, predicates with no statistics, 0-ary atoms,
   view relations estimated by [view_stats], and wide atoms carrying
   more than 62 distinct variables. *)
let estimate_matches_oracle =
  let wide_arity = 32 in
  let gen_case =
    Gen.(
      let int_col = map (fun i -> Term.Int i) (int_range 0 20) in
      let mixed_col = frequency [ (3, int_col); (1, map (fun s -> Term.Str s) (oneofl [ "c"; "d" ])) ] in
      let relation pred cols =
        let* n = int_range 0 12 in
        let* tuples = list_repeat n (flatten_l cols) in
        return (pred, Relation.of_tuples (List.length cols) tuples)
      in
      let* rels =
        flatten_l
          [
            relation "p" [ int_col; int_col ];
            relation "r" [ int_col; mixed_col ];
            relation "s" [ int_col ];
            relation "z" [];
            relation "w" (List.init wide_arity (fun _ -> int_col));
          ]
      in
      let db = List.fold_left (fun db (p, r) -> Database.add_relation p r db) Database.empty rels in
      let var = map (fun i -> Term.Var ("X" ^ string_of_int i)) (int_range 0 4) in
      let term =
        frequency
          [
            (6, var);
            (2, map (fun i -> Term.Cst (Term.Int i)) (int_range 0 22));
            (1, return (Term.Cst (Term.Str "c")));
          ]
      in
      let atom_of (pred, arity) = map (Atom.make pred) (list_repeat arity term) in
      let* views =
        let* n = int_range 0 2 in
        flatten_l
          (List.init n (fun i ->
               let* body =
                 list_size (int_range 1 2) (oneofl [ ("p", 2); ("r", 2); ("s", 1) ] >>= atom_of)
               in
               let vars = List.sort_uniq String.compare (List.concat_map Atom.vars body) in
               let* head = gen_subset vars in
               return
                 (Query.make_exn
                    (Atom.make ("v" ^ string_of_int i) (List.map (fun x -> Term.Var x) head))
                    body)))
      in
      let view_preds = List.map (fun (v : Query.t) -> (v.head.pred, Atom.arity v.head)) views in
      (* a wide atom: 32 variables of its own block, the first shared with
         the narrow atoms' X1 *)
      let wide =
        let* block = int_range 0 2 in
        return
          (Atom.make "w"
             (Term.Var "X1"
             :: List.init (wide_arity - 1) (fun k ->
                    Term.Var (Printf.sprintf "W%d_%d" block k))))
      in
      let atom =
        frequency
          [
            (6, oneofl ([ ("p", 2); ("r", 2); ("s", 1); ("z", 0); ("nostat", 2); ("y", 0) ] @ view_preds)
                >>= atom_of);
            (1, wide);
          ]
      in
      let* bodies = list_size (int_range 1 4) (list_size (int_range 1 5) atom) in
      (* now and then a body over all three wide blocks: 94 variables *)
      let* all_wide = frequency [ (3, return []); (1, flatten_l [ wide; wide; wide; atom ]) ] in
      let all_wide =
        List.mapi
          (fun i (a : Atom.t) ->
            if a.pred = "w" then
              Atom.make "w"
                (List.mapi
                   (fun k t -> if k = 0 then t else Term.Var (Printf.sprintf "W%d_%d" i k))
                   a.args)
            else a)
          all_wide
      in
      return (db, views, if all_wide = [] then bodies else bodies @ [ all_wide ]))
  in
  let print (db, views, bodies) =
    print_views views ^ " || "
    ^ String.concat " | " (List.map (fun b -> String.concat "," (List.map Atom.to_string b)) bodies)
    ^ " || db size " ^ string_of_int (Database.total_size db)
  in
  make_test ~count:200 ~name:"estimated M2 = map-based estimator, bit for bit" gen_case print
    (fun (db, views, bodies) ->
      let bits x = Int64.bits_of_float x in
      let same x y = Int64.equal (bits x) (bits y) in
      let base = Estimate.of_stats (Stats.collect db) in
      let est = Estimate.view_stats base views in
      let src = M2.estimated est in
      let views_ok =
        List.for_all
          (fun (pred, card, distinct) ->
            match Estimate.find est pred with
            | Some r ->
                same r.Estimate.card card
                && Array.length r.Estimate.distinct = Array.length distinct
                && Array.for_all2 same r.Estimate.distinct distinct
            | None -> false)
          (Oracle.Estimate.view_stats base views)
      in
      let body_ok body =
        let order, cost = Option.get (M2.optimal src body) in
        let oorder, ocost = Oracle.Estimate.optimal est body in
        same (Estimate.cardinality est body) (Oracle.Estimate.cardinality est body)
        && same (M2.cost src body) (Oracle.Estimate.cost est body)
        && same (M2.cost src (List.rev body)) (Oracle.Estimate.cost est (List.rev body))
        && same cost ocost
        && List.equal Atom.equal order oorder
      in
      let candidates = List.map (Query.make_exn (Atom.make "q" [])) bodies in
      let choice_ok =
        match (Select.m2 ~rank:est src candidates, Oracle.Estimate.select est candidates) with
        | Some c, Some (p, order, cost) ->
            c.Select.rewriting == p && List.equal Atom.equal c.Select.plan order
            && same c.Select.cost cost
        | None, None -> true
        | _ -> false
      in
      views_ok && List.for_all body_ok bodies && choice_ok)

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
          let img = Materialize.image base views in
          let truth = Oracle.Eval.answers base query in
          let suppl = M3.supplementary ~head:p.head p.body in
          let heur = M3.heuristic ~views ~query ~head:p.head p.body in
          Relation.equal truth (M3.answers img ~head:p.head suppl)
          && Relation.equal truth (M3.answers img ~head:p.head heur)
          && M3.cost_of_plan img heur <= M3.cost_of_plan img suppl)

(* Inverse rules: certain answers are sound (never exceed the true
   answer) and agree with MiniCon's maximally-contained union. *)
let inverse_rules_sound_and_complete =
  let gen = Gen.triple gen_query (gen_views ~max_views:3 ~max_atoms:2) gen_database in
  make_test ~count:120 ~name:"inverse rules = MiniCon MCR, both sound" gen print_with_db
    (fun (query, views, base) ->
      let view_db = Materialize.views base views in
      let certain = Inverse_rules.certain_answers ~views ~query view_db in
      let truth = Oracle.Eval.answers base query in
      Relation.subset certain truth
      &&
      match Minicon.maximally_contained ~query ~views () with
      | None -> Relation.cardinality certain = 0
      | Some u -> Relation.equal certain (Oracle.Eval.answers_ucq view_db u))

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
          (Oracle.Eval.answers base query))

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
          else Relation.subset (Oracle.Eval.answers_ucq db u1) (Oracle.Eval.answers_ucq db u2)
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
          && Relation.equal (Oracle.Eval.answers_ucq db u) (Oracle.Eval.answers_ucq db m))

(* The planner's one-call API agrees with direct evaluation. *)
let planner_end_to_end =
  let gen = Gen.triple gen_query (gen_views ~max_views:3 ~max_atoms:2) gen_database in
  make_test ~count:120 ~name:"planner answer_via_views is sound/complete" gen print_with_db
    (fun (query, views, base) ->
      let problem = { Planner.query; views } in
      let truth = Oracle.Eval.answers base query in
      match Planner.answer_via_views problem ~base with
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
      let code, tuples =
        View_tuple.compute_coded ~query:qm (View_tuple.Classes.of_views views)
      in
      if tuples = [] then true
      else begin
        (* pseudo-randomly choose a subset of the view tuples *)
        let chosen = List.filteri (fun i _ -> (pick lsr i) land 1 = 1) tuples in
        if chosen = [] then true
        else
          match
            Query.make qm.Query.head
              (List.map (fun (tv : View_tuple.coded) -> tv.tuple.atom) chosen)
          with
          | Error _ -> true (* unsafe: a head variable not covered *)
          | Ok p ->
              let covered =
                List.fold_left
                  (fun acc (core : Tuple_core.t) -> acc lor core.mask)
                  0
                  (Tuple_core.cores code chosen)
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
      match Oracle.View_selection.minimal_answering_set ~query ~views with
      | None -> not (Corecover.has_rewriting ~query ~views)
      | Some kept ->
          Oracle.View_selection.is_answering_set ~query kept
          && List.for_all
               (fun v ->
                 not
                   (Oracle.View_selection.is_answering_set ~query
                      (List.filter (fun v' -> v' != v) kept)))
               kept)

(* Datalog on random graphs: semi-naive equals the naive fixpoint, magic
   sets and direct evaluation give the oracle's answers, and certain
   answers over views equal the oracle's.  Programs are a recursive core
   (linear or non-linear transitive closure, or same-generation over
   [edge] as the parent relation) plus a random choice of rules with body
   and head constants and repeated variables; views are a random nonempty
   choice of a copy, a projection and a two-step join of [edge]. *)
let datalog_engines_agree =
  let gen_case =
    let open Gen in
    let* edges = list_size (int_range 0 12) (pair (int_range 0 5) (int_range 0 5)) in
    let* core =
      oneofl
        [
          [ "p(X, Y) :- edge(X, Y)."; "p(X, Z) :- edge(X, Y), p(Y, Z)." ];
          [ "p(X, Y) :- edge(X, Y)."; "p(X, Z) :- p(X, Y), p(Y, Z)." ];
          [ "p(X, X) :- edge(X, Y)."; "p(X, Y) :- edge(XP, X), p(XP, YP), edge(YP, Y)." ];
        ]
    in
    let* k = int_range 0 5 in
    let* extra =
      gen_subset
        [
          "loop(X) :- p(X, X).";
          Printf.sprintf "tag(X, %d, t) :- p(X, %d)." k k;
          "pair(X, X, Y) :- p(X, Y), p(Y, X).";
          Printf.sprintf "from(Y) :- edge(%d, Y)." k;
          "from(Z) :- from(Y), p(Y, Z), edge(Z, Z).";
        ]
    in
    let* views =
      gen_subset
        [
          "v(X, Y) :- edge(X, Y)."; "w(X) :- edge(X, Y)."; "u(X, Z) :- edge(X, Y), edge(Y, Z).";
        ]
    in
    let views = if views = [] then [ "w(X) :- edge(X, Y)." ] else views in
    return (edges, core @ extra, views)
  in
  (* free, bound and repeated-variable query atoms for each IDB predicate *)
  let queries program =
    let x = Term.Var "X" and y = Term.Var "Y" and c n = Term.Cst (Term.Int n) in
    Names.Sset.elements (Vplan.Program.idb_predicates program)
    |> List.concat_map (fun pred ->
           List.map (Atom.make pred)
             (match pred with
             | "loop" | "from" -> [ [ x ]; [ c 2 ] ]
             | "tag" -> [ [ x; y; Term.Cst (Term.Str "t") ]; [ x; x; y ] ]
             | "pair" -> [ [ x; x; y ]; [ c 1; y; y ] ]
             | _ -> [ [ x; y ]; [ c 0; y ]; [ x; x ]; [ x; c 3 ]; [ c 1; c 4 ] ]))
  in
  make_test ~count:100 ~name:"datalog: semi-naive = naive, magic = direct" gen_case
    (fun (edges, rules, views) ->
      String.concat "," (List.map (fun (x, y) -> Printf.sprintf "%d->%d" x y) edges)
      ^ " || " ^ String.concat " " rules ^ " || " ^ String.concat " " views)
    (fun (edges, rules, views) ->
      let program = Vplan.Program.make_exn (Helpers.qs rules) in
      let views = Helpers.qs views in
      let edb =
        Database.of_facts (List.map (fun (x, y) -> ("edge", [ Term.Int x; Term.Int y ])) edges)
      in
      let view_db = Materialize.views edb views in
      let fixpoint = Oracle.Datalog.naive program edb in
      let recovered = Oracle.Datalog.naive program (Inverse_rules.recover_base ~views view_db) in
      Database.equal (Vplan.Seminaive.evaluate program edb) fixpoint
      && List.for_all
           (fun query ->
             let expected = Oracle.Datalog.select fixpoint query in
             Relation.equal expected (Vplan.Magic.answers program edb ~query)
             && Relation.equal expected (Vplan.Recursive_views.answers_direct ~program ~query edb)
             && Relation.equal
                  (Oracle.Datalog.certain recovered query)
                  (Vplan.Recursive_views.certain_answers ~views ~program ~query view_db))
           (queries program))

(* Ccq.answers (bindings from the hash-join engine, filtered, then
   projected) equals backtracking evaluation with the comparisons checked
   per environment.  Body constants are drawn from the database's values
   so they select; comparisons put variables or constants on either side;
   heads repeat variables and carry constants. *)
let ccq_answers_match_oracle =
  let gen_case =
    let open Gen in
    let cst = map (fun n -> Term.Cst (Term.Int n)) (int_range 0 3) in
    let gen_arg = frequency [ (3, map (fun x -> Term.Var x) (oneofl var_pool)); (1, cst) ] in
    let gen_atom =
      let* pred, arity = oneofl pred_pool in
      let+ args = list_repeat arity gen_arg in
      Atom.make pred args
    in
    let* body = list_size (int_range 1 3) gen_atom in
    let vars = List.concat_map Atom.vars body |> List.sort_uniq String.compare in
    let var = if vars = [] then cst else map (fun x -> Term.Var x) (oneofl vars) in
    let side = frequency [ (3, var); (1, cst) ] in
    let* comparisons =
      list_size (int_range 0 3)
        (let* pred = oneofl [ "lt"; "le" ] in
         let* l = side in
         let+ r = side in
         Atom.make pred [ l; r ])
    in
    let* head = list_size (int_range 0 3) var in
    let* head_consts = list_size (int_range 0 1) cst in
    let* head = shuffle_l (head @ head_consts) in
    let+ db = gen_database in
    (Query.make_exn (Atom.make "q" head) (body @ comparisons), db)
  in
  make_test ~count:300 ~name:"Ccq.answers = backtracking CCQ evaluation" gen_case
    (fun (q, db) -> print_query q ^ " || db size " ^ string_of_int (Database.total_size db))
    (fun (q, db) -> Relation.equal (Oracle.Ccq.answers db q) (Ccq.answers db q))

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

(* Grouping and fan-out are pure optimizations: CoreCover returns the
   same rewritings whether it groups the views in-call, reuses a
   catalog's classes, runs on singleton classes (grouping off) or fans
   out across domains, on generated star/chain workloads. *)
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
          let classes view_classes () = Corecover.gmrs ~view_classes ~query ~views () in
          List.for_all
            (fun variant -> List.equal Query.equal reference (rewritings (variant ())))
            [
              classes (Catalog.view_classes (Catalog.create_exn views));
              classes (View_tuple.Classes.of_views views);
              (fun () -> Corecover.gmrs ~domains:4 ~query ~views ());
            ])

(* Signature bucketing and mask hashing group exactly as the pairwise
   scan does: same classes, same class order, same member order. *)
let grouping_matches_pairwise =
  let gen =
    Gen.(
      pair
        (triple
           (oneofl [ Generator.Star; Generator.Chain ])
           (int_range 2 25) (int_range 0 10_000))
        (list_size (int_range 0 30) (int_range 0 7)))
  in
  make_test ~count:40 ~name:"grouping = pairwise grouping oracle" gen
    (fun ((shape, num_views, seed), keys) ->
      Printf.sprintf "%s views=%d seed=%d keys=[%s]"
        (match shape with Generator.Star -> "star" | _ -> "chain")
        num_views seed
        (String.concat ";" (List.map string_of_int keys)))
    (fun ((shape, num_views, seed), keys) ->
      let views =
        (Generator.generate { Generator.default with shape; num_views; seed }).views
      in
      let names = List.map (List.map View.name) in
      names (Equiv_class.group_views views) = names (Oracle.Grouping.group_views views)
      && (* tag each key with its position so member order shows *)
      let tagged = List.mapi (fun i k -> (k, i)) keys in
      Equiv_class.group_by ~key:fst tagged
      = Oracle.Grouping.group ~eq:(fun (a, _) (b, _) -> a = b) tagged)

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

(* View tuples come from matching compiled view bodies into the query;
   the backtracking evaluator is the oracle: the same tuples, in the same
   order, as thawing [Oracle.Eval.answers] of every view over the canonical
   database. *)
let view_tuples_match_eval =
  let shapes =
    [ ("star", Generator.Star); ("chain", Generator.Chain); ("cycle", Generator.Cycle);
      ("clique", Generator.Clique); ("random", Generator.Random_shape) ]
  in
  let gen = Gen.(triple (oneofl shapes) (int_range 1 30) (int_range 0 10_000)) in
  make_test ~count:100 ~name:"view tuples = Eval over the canonical database" gen
    (fun ((name, _), num_views, seed) ->
      Printf.sprintf "%s views=%d seed=%d" name num_views seed)
    (fun ((_, shape), num_views, seed) ->
      let inst = Generator.generate { Generator.default with shape; num_views; seed } in
      let query = inst.Generator.query and views = inst.views in
      let expected = Oracle.Canonical.view_tuples ~evaluate:Oracle.Eval.answers ~query views in
      List.equal Atom.equal expected
        (List.map (fun tv -> tv.View_tuple.atom) (View_tuple.compute ~query views)))

(* The matcher against evaluating each view over the canonical database
   with [Indexed_db]: the same tuples in the same order.  Generated
   workloads of all six shapes, and random queries with constants,
   repeated variables and a shuffled head against views whose bodies use
   a constant the query lacks ("e", 7) and whose heads carry such
   constants and repeated variables.  The views are matched compiled
   in-call, and through classes whose compilations were reused from
   another value, as a catalog generation reuses its parent's. *)
let view_tuples_match_indexed_db =
  let shapes =
    [ Generator.Star; Generator.Chain; Generator.Cycle; Generator.Clique; Generator.Path;
      Generator.Random_shape ]
  in
  let workload =
    Gen.map
      (fun (shape, num_views, seed) ->
        let inst = Generator.generate { Generator.default with shape; num_views; seed } in
        (inst.Generator.query, inst.views))
      Gen.(triple (oneofl shapes) (int_range 1 30) (int_range 0 10_000))
  in
  let foreign = [ Term.Str "e"; Term.Int 7 ] in
  let gen_view i =
    let open Gen in
    let* body = gen_body ~max_atoms:2 in
    let* body =
      (* now and then a body constant the query cannot have *)
      let* swap = int_range 0 5 in
      match body with
      | (a : Atom.t) :: rest when swap = 0 && a.args <> [] ->
          let* c = oneofl foreign in
          return (Atom.make a.pred (Term.Cst c :: List.tl a.args) :: rest)
      | _ -> return body
    in
    let vars = List.concat_map Atom.vars body in
    let head_term =
      if vars = [] then map (fun c -> Term.Cst c) (oneofl (const_pool @ foreign))
      else
        frequency
          [
            (3, map (fun x -> Term.Var x) (oneofl vars));
            (1, map (fun c -> Term.Cst c) (oneofl (const_pool @ foreign)));
          ]
    in
    let* arity = int_range 0 3 in
    let* args = list_repeat arity head_term in
    return (Query.make_exn (Atom.make ("v" ^ string_of_int i) args) body)
  in
  let random =
    let open Gen in
    (* a shuffled head, so the variables' first occurrences are not in
       the canonical database's (alphabetical) order *)
    let* body = gen_body ~max_atoms:4 in
    let* head = shuffle_l (List.sort_uniq String.compare (List.concat_map Atom.vars body)) in
    let* head = gen_subset head in
    let query = Query.make_exn (Atom.make "q" (List.map (fun x -> Term.Var x) head)) body in
    let* n = int_range 1 4 in
    let* views = flatten_l (List.init n gen_view) in
    return (query, views)
  in
  make_test ~count:300 ~name:"view tuples = Indexed_db over the canonical database"
    (Gen.oneof [ workload; random ]) print_instance
    (fun (query, views) ->
      let evaluate db v = Indexed_db.answers (Indexed_db.of_database db) v in
      let expected = Oracle.Canonical.view_tuples ~evaluate ~query views in
      List.equal Atom.equal expected
        (List.map (fun tv -> tv.View_tuple.atom) (View_tuple.compute ~query views)))

(* [Query.make] scans the body for each head variable; the oracle takes
   the set difference.  Heads carry constants (a [Str] constant may be
   spelled like a variable) and repeated variables; bodies may be empty
   or hold 0-ary atoms. *)
let query_make_matches_oracle =
  let term =
    Gen.frequency
      [
        (6, Gen.map (fun x -> Term.Var x) (Gen.oneofl [ "X"; "Y"; "Z"; "W" ]));
        (1, Gen.map (fun i -> Term.Cst (Term.Int i)) (Gen.int_range 0 2));
        (1, Gen.map (fun c -> Term.Cst (Term.Str c)) (Gen.oneofl [ "c"; "X" ]));
      ]
  in
  let atom pred = Gen.map (Atom.make pred) (Gen.list_size (Gen.int_range 0 3) term) in
  let gen =
    Gen.pair (atom "q")
      (Gen.list_size (Gen.int_range 0 4) (Gen.bind (Gen.oneofl [ "p"; "r" ]) atom))
  in
  make_test ~count:500 ~name:"Query.make = the set-based safety check" gen
    (fun (head, body) ->
      Atom.to_string head ^ " :- " ^ String.concat ", " (List.map Atom.to_string body))
    (fun (head, body) ->
      match (Query.make head body, Oracle.query_safety head body) with
      | Ok q, Ok () -> q.Query.head == head && q.Query.body == body
      | Error msg, Error expected -> String.equal msg expected
      | Ok _, Error _ | Error _, Ok () -> false)

(* [covers] is aligned one-to-one with [rewritings]: each rewriting is
   the minimized head over its cover's view-tuple atoms, also when
   [verify] or a budget keeps only a prefix of the rewritings. *)
let covers_align_with_rewritings =
  let gen =
    Gen.map
      (fun ((query, views), max_steps) -> (query, views, max_steps))
      (Gen.pair
         (Gen.frequency [ (1, gen_wire_instance); (2, gen_covered_instance) ])
         (Gen.int_range 1 300))
  in
  make_test ~count:200 ~name:"CoreCover covers align with rewritings" gen
    (fun (query, views, max_steps) ->
      print_instance (query, views) ^ " || max_steps " ^ string_of_int max_steps)
    (fun (query, views, max_steps) ->
      let aligned (r : Corecover.result) =
        let atoms =
          Array.of_list (List.map (fun (tv, _) -> tv.View_tuple.atom) r.Corecover.cores)
        in
        let head = r.Corecover.minimized_query.Query.head in
        List.length r.Corecover.covers = List.length r.Corecover.rewritings
        && List.for_all2
             (fun cover p ->
               Query.equal p (Query.make_exn head (List.map (Array.get atoms) cover)))
             r.Corecover.covers r.Corecover.rewritings
      in
      let budget () = Budget.create ~max_steps () in
      let checked r = aligned (Helpers.verified ~query ~views r) in
      List.for_all checked
        [
          Corecover.gmrs ~query ~views ();
          Corecover.gmrs ~max_covers:1 ~query ~views ();
          Corecover.gmrs ~budget:(budget ()) ~query ~views ();
          Corecover.all_minimal ~query ~views ();
          Corecover.all_minimal ~max_results:1 ~query ~views ();
          Corecover.all_minimal ~budget:(budget ()) ~query ~views ();
        ])

let suite =
  [
    parser_roundtrip;
    query_to_string_matches_pp;
    containment_sound;
    containment_canonical;
    containment_reflexive;
    isomorphic_implies_equivalent;
    minimize_correct;
    minimize_semantics_preserved;
    tuple_core_unique;
    tuple_cores_match_oracle_workloads;
    tuple_cores_match_oracle_random;
    corecover_sound;
    corecover_closed_world;
    corecover_matches_naive;
    gmr_minimum;
    minicon_contained;
    bucket_agrees;
    m2_image_matches_eval;
    m2_image_matches_eval_radix;
    m3_image_matches_eval;
    m2_dp_exact;
    m2_memo_pruned_exact;
    m2_connected_exact;
    best_m2_parallel_deterministic;
    estimate_matches_oracle;
    m3_correct_and_dominant;
    inverse_rules_sound_and_complete;
    certain_complete_under_equivalence;
    ucq_containment_sound;
    ucq_minimize_preserves;
    planner_end_to_end;
    order_constraint_sound;
    ccq_containment_sound;
    ccq_answers_match_oracle;
    lemma_4_1;
    lemma_3_2;
    theorem_4_1;
    view_selection_correct;
    datalog_engines_agree;
    set_cover_props;
    corecover_configs_agree;
    grouping_matches_pairwise;
    view_tuples_match_eval;
    corecover_budget_anytime;
    query_make_matches_oracle;
    covers_align_with_rewritings;
    view_tuples_match_indexed_db;
  ]
