(* Workload inputs, all derived from the seed: the view catalog, the
   base database, the request each client sends next, and the answer
   every response must carry.  Expected answers are computed here, in
   process, before any server starts. *)

open Vplan

type kind = Hot | Cold | Plan | Plan_est | Analyze | Mutation

let kind_name = function
  | Hot -> "hot"
  | Cold -> "cold"
  | Plan -> "plan"
  | Plan_est -> "plan_est"
  | Analyze -> "analyze"
  | Mutation -> "mutation"

let all_kinds = [ Hot; Cold; Plan; Plan_est; Analyze; Mutation ]

type expect =
  | Rewrites of { key : int; count : int }
      (** [ok COUNT source ...] followed by COUNT rewritings; [key] names
          the distinct query, for the equivalence re-check *)
  | Tokens of string list
      (** words ([cost=12], [views=1001], [none]) the [ok] line must carry *)

type request =
  | Control of string  (** untimed session command, e.g. [set cost-mode] *)
  | Timed of { kind : kind; line : string; expect : expect }

type sizes = { star_views : int; star_rows : int; path_views : int; path_rows : int }

let full = { star_views = 1000; star_rows = 200; path_views = 100; path_rows = 2000 }
let smoke = { star_views = 100; star_rows = 50; path_views = 100; path_rows = 1000 }

type t = {
  name : string;
  views : View.t list;
  extra_views : View.t list;  (** views requests may add *)
  base : Database.t;
  durable : bool;  (** the server journals to a [--data-dir] *)
  warmup : request list;
  clients : unit -> (unit -> request) array;
      (** fresh request generators, one per client connection *)
  probe_queries : Query.t list;  (** distinct queries for direct layer probes *)
  all_minimal : bool;  (** requests run CoreCover* (plans), not CoreCover *)
  replay : int;  (** requests the traced run replays *)
}

let clients_per_workload = 2

let rule_line cmd q = cmd ^ " " ^ Query.to_string q ^ "."

(* ------------------------------------------------------------------ *)
(* Star catalog: the paper's Section 7 shape at 1000 views.            *)

(* One fixed random catalog, made isomorphic per seed: the seed permutes
   the relation names inside the views and the order (hence the names)
   of the views, so every seed's catalog has the same equivalence
   classes and every query the same number of rewritings. *)
let star_instance sizes seed =
  let inst = Generator.generate { Generator.default with num_views = sizes.star_views; seed = 1 } in
  let rng = Prng.create seed in
  let rels = List.sort_uniq compare (Query.body_preds inst.Generator.query) in
  let rename = List.combine rels (Prng.shuffle rng rels) in
  let views =
    Prng.shuffle rng inst.Generator.views
    |> List.mapi (fun i (v : Query.t) ->
           Query.make_exn
             (Atom.make (Printf.sprintf "v%d" i) v.Query.head.Atom.args)
             (List.map
                (fun (a : Atom.t) -> Atom.make (List.assoc a.Atom.pred rename) a.Atom.args)
                v.Query.body))
  in
  { inst with Generator.views }

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m land (m - 1)) (acc + 1) in
  go m 0

(* Every subgoal subset of size >= 3 of the 8-subgoal star query (219 of
   them), each exposing the center and its spokes. *)
let star_pool (q : Query.t) =
  let body = q.Query.body in
  List.init (1 lsl List.length body) Fun.id
  |> List.filter (fun mask -> popcount mask >= 3)
  |> List.map (fun mask ->
         let b = List.filteri (fun i _ -> mask land (1 lsl i) <> 0) body in
         let spokes = List.map (fun (a : Atom.t) -> List.nth a.Atom.args 1) b in
         Query.make_exn (Atom.make "q" (Term.Var "C" :: spokes)) b)
  |> Array.of_list

(* An isomorphic copy the cache must recognise: variables renamed with a
   per-request suffix, body reversed. *)
let variant k (q : Query.t) =
  let sigma =
    Subst.of_list
      (List.map (fun x -> (x, Term.Var (Printf.sprintf "%s_%d" x k))) (Query.vars q))
  in
  let q = Query.apply sigma q in
  Query.make_exn q.Query.head (List.rev q.Query.body)

let rotate_head r (q : Query.t) =
  let args = q.Query.head.Atom.args in
  let r = r mod List.length args in
  let args = List.filteri (fun i _ -> i >= r) args @ List.filteri (fun i _ -> i < r) args in
  Query.make_exn (Atom.make q.Query.head.Atom.pred args) q.Query.body

let rewrite_counts cat queries =
  Array.map
    (fun query ->
      let r =
        Corecover.gmrs ~view_classes:(Catalog.view_classes cat) ~query
          ~views:(Catalog.views cat) ()
      in
      List.length r.Corecover.rewritings)
    queries

(* The seed relabels the values of one fixed instance through a
   bijection of the domain: every seed gets an isomorphic base with the
   same join sizes, so the work a request does never depends on it. *)
let relabeled rng ~domain db =
  let perm = Array.of_list (Prng.shuffle rng (List.init domain Fun.id)) in
  let value = function Term.Int v -> Term.Int perm.(v) | c -> c in
  List.fold_left
    (fun acc p ->
      let r = Database.find_exn p db in
      Database.add_relation p
        (Relation.of_tuples (Relation.arity r) (List.map (List.map value) (Relation.tuples r)))
        acc)
    Database.empty (Database.predicates db)

let star_base sizes seed (q : Query.t) =
  let rows = sizes.star_rows in
  relabeled (Prng.create seed) ~domain:rows
    (Datagen.for_query (Prng.create 7) ~tuples:rows ~domain:rows q)

let take n l = List.filteri (fun i _ -> i < n) l

(* [k] seeded picks of each subgoal count 3..6: the seed chooses which
   subsets, never the mix of sizes, and the mix is what sets how much
   work a request is. *)
let per_size rng pool k =
  List.concat_map
    (fun size ->
      Array.to_list pool
      |> List.filter (fun (q : Query.t) -> List.length q.Query.body = size)
      |> Prng.shuffle rng |> take k)
    [ 3; 4; 5; 6 ]

(* A ring of pre-rendered hot requests: each pool query in several
   renamings, in the seeded order; client [c] starts half a ring after
   client [c-1]. *)
let hot_ring ~pool ~order ~counts ~copies =
  let n = Array.length order in
  Array.init (n * copies) (fun i ->
      let key = order.(i mod n) in
      Timed
        {
          kind = Hot;
          line = rule_line "rewrite" (variant i pool.(key));
          expect = Rewrites { key; count = counts.(key) };
        })

let ring_clients ring () =
  let n = Array.length ring in
  Array.init clients_per_workload (fun c ->
      let i = ref (c * n / clients_per_workload) in
      fun () ->
        let r = ring.(!i mod n) in
        incr i;
        r)

let rewrite_hot sizes seed =
  let inst = star_instance sizes seed in
  let pool = star_pool inst.Generator.query in
  let cat = Catalog.create_exn inst.Generator.views in
  let counts = rewrite_counts cat pool in
  let rng = Prng.create seed in
  let order = Array.of_list (Prng.shuffle rng (List.init (Array.length pool) Fun.id)) in
  let ring = hot_ring ~pool ~order ~counts ~copies:4 in
  {
    name = "rewrite_hot";
    views = inst.Generator.views;
    extra_views = [];
    base = star_base sizes seed inst.Generator.query;
    durable = false;
    (* one pass over the pool caches every canonical query *)
    warmup = take (Array.length pool) (Array.to_list ring);
    clients = ring_clients ring;
    probe_queries = per_size rng pool 4;
    all_minimal = false;
    replay = 400;
  }

let rewrite_cold sizes seed =
  let inst = star_instance sizes seed in
  let pool = star_pool inst.Generator.query in
  let distinct =
    Array.concat (List.map (fun r -> Array.map (rotate_head r) pool) [ 0; 1; 2 ])
  in
  let rng = Prng.create seed in
  (* the warm-up uses a fourth head rotation, which the window never
     sends, so it leaves nothing in the cache for the window to hit *)
  let warm = Array.of_list (List.map (rotate_head 3) (per_size rng pool 16)) in
  let cat = Catalog.create_exn inst.Generator.views in
  let counts = rewrite_counts cat (Array.append distinct warm) in
  let order =
    Array.of_list (Prng.shuffle rng (List.init (Array.length distinct) Fun.id))
  in
  let request key q =
    Timed
      { kind = Cold; line = rule_line "rewrite" q; expect = Rewrites { key; count = counts.(key) } }
  in
  let n = Array.length distinct in
  {
    name = "rewrite_cold";
    views = inst.Generator.views;
    extra_views = [];
    base = star_base sizes seed inst.Generator.query;
    durable = false;
    warmup = List.mapi (fun i q -> request (n + i) q) (Array.to_list warm);
    (* both clients draw from one sequence: a query recurs only after
       every other distinct query (more than the cache holds), so no
       request can hit *)
    clients =
      (fun () ->
        let next = Atomic.make 0 in
        Array.init clients_per_workload (fun _ () ->
            let key = order.(Atomic.fetch_and_add next 1 mod n) in
            request key distinct.(key)));
    probe_queries = per_size rng pool 4;
    all_minimal = false;
    replay = 300;
  }

let catalog_churn sizes seed =
  let inst = star_instance sizes seed in
  let full_pool = star_pool inst.Generator.query in
  let rng = Prng.create seed in
  let pool = Array.of_list (per_size rng full_pool 4) in
  let cat = Catalog.create_exn inst.Generator.views in
  let counts = rewrite_counts cat pool in
  let order = Array.of_list (Prng.shuffle rng (List.init (Array.length pool) Fun.id)) in
  let reads = hot_ring ~pool ~order ~counts ~copies:8 in
  (* a renamed copy of an existing view joins that view's equivalence
     class without becoming its representative, so no rewriting — and
     no expected answer — changes while it comes and goes *)
  let copy =
    let v = Prng.pick rng inst.Generator.views in
    Query.make_exn (Atom.make "vcopy" v.Query.head.Atom.args) v.Query.body
  in
  let n = List.length inst.Generator.views in
  let mutation line views =
    Timed { kind = Mutation; line; expect = Tokens [ Printf.sprintf "views=%d" views ] }
  in
  let add = mutation (rule_line "catalog add" copy) (n + 1) in
  let remove = mutation "catalog remove vcopy" n in
  let between = 20 in
  let cycle = (2 * between) + 2 in
  {
    name = "catalog_churn";
    views = inst.Generator.views;
    extra_views = [ copy ];
    base = star_base sizes seed inst.Generator.query;
    durable = true;
    warmup = take (Array.length pool) (Array.to_list reads);
    clients =
      (fun () ->
        let readers = ring_clients reads () in
        let writer =
          let i = ref 0 and reader = readers.(0) in
          fun () ->
            let pos = !i mod cycle in
            incr i;
            if pos = 0 then add
            else if pos = between + 1 then remove
            else reader ()
        in
        [| writer; readers.(1) |]);
    probe_queries = Array.to_list pool;
    all_minimal = false;
    replay = 5040;
  }

(* ------------------------------------------------------------------ *)
(* Path views (Romero et al.): acyclic, projection-heavy plans.        *)

(* A path over [r0]/[r1] exposing only its endpoints: [len] subgoals,
   the first on [r<start>]. *)
let path_rule name ~len ~start =
  let v i = Term.Var (Printf.sprintf "X%d" i) in
  Query.make_exn
    (Atom.make name [ v 0; v len ])
    (List.init len (fun i ->
         Atom.make (Printf.sprintf "r%d" ((start + i) mod 2)) [ v i; v (i + 1) ]))

let plan_data sizes seed =
  let rng = Prng.create seed in
  (* the subpaths of a 6-subgoal path over r0/r1 come in six shapes
     (first relation x 1-3 subgoals); the mix is fixed, the seed orders
     and names them *)
  let views =
    List.init sizes.path_views (fun i -> ((i / 3) mod 2, (i mod 3) + 1))
    |> Prng.shuffle rng
    |> List.mapi (fun i (start, len) -> path_rule (Printf.sprintf "v%d" i) ~len ~start)
  in
  let pool =
    Array.of_list
      (List.concat_map
         (fun len -> List.map (fun start -> path_rule "q" ~len ~start) [ 0; 1 ])
         [ 2; 3; 4; 5; 6 ])
  in
  let rows = sizes.path_rows in
  let spec p = { Datagen.predicate = p; arity = 2; tuples = rows; domain = 4 * rows } in
  let base =
    relabeled rng ~domain:(4 * rows)
      (Datagen.random_dist (Prng.create 11)
         [ (spec "r0", []); (spec "r1", [ Datagen.Uniform; Datagen.Zipf 0.9 ]) ])
  in
  (* reference answers: the same selection in process, and analyze's
     answer count from an independent evaluator over the base — by
     Theorem 4.1 the chosen rewriting must return exactly Q's answers *)
  let svc = Service.create (Catalog.create_exn views) in
  Service.set_base svc base;
  let idb = Indexed_db.of_database base in
  let expected =
    Array.map
      (fun q ->
        let exact =
          match Service.plan svc q with
          | Some { Service.plan_cost = Service.Cells c; _ } -> [ Printf.sprintf "cost=%d" c ]
          | Some _ | None -> [ "none" ]
        in
        let est =
          match Service.plan ~cost_mode:Service.Estimated svc q with
          | Some { Service.plan_cost = Service.Cells_est c; _ } ->
              [ Printf.sprintf "cost_est=%.1f" c ]
          | Some _ | None -> [ "none" ]
        in
        let answers =
          Printf.sprintf "answers=%d" (Relation.cardinality (Indexed_db.answers idb q))
        in
        (exact, est, if exact = [ "none" ] then exact else answers :: exact))
      pool
  in
  let n = Array.length pool in
  let timed kind cmd i e = Timed { kind; line = rule_line cmd pool.(i); expect = Tokens e } in
  let plan i = let e, _, _ = expected.(i) in timed Plan "plan" i e in
  let est i = let _, e, _ = expected.(i) in timed Plan_est "plan" i e in
  let analyze i = let _, _, e = expected.(i) in timed Analyze "explain analyze" i e in
  (* one cycle: an exact plan and its explain analyze, then an estimated
     plan of every pool query; fixed proportions keep each percentile
     inside one population (p50 estimated, p90/p99 exact) *)
  let cycles =
    Array.init n (fun c ->
        Array.of_list
          ([ plan c; analyze c; Control "set cost-mode estimated" ]
          @ List.init n (fun j -> est ((c + j) mod n))
          @ [ Control "set cost-mode exact" ]))
  in
  let cycle_len = Array.length cycles.(0) in
  {
    name = "plan_data";
    views;
    extra_views = [];
    base;
    durable = false;
    (* the first exact plan materializes every view; one plan per query
       fills the cross-request subplan memo *)
    warmup =
      List.init n plan
      @ [ Control "set cost-mode estimated"; est 0; Control "set cost-mode exact" ];
    clients =
      (fun () ->
        Array.init clients_per_workload (fun c ->
            let i = ref 0 in
            fun () ->
              let k = !i in
              incr i;
              let round = (k / cycle_len) + (c * n / clients_per_workload) in
              cycles.(round mod n).(k mod cycle_len)));
    probe_queries = Array.to_list pool;
    all_minimal = true;
    replay = 288;
  }

let make sizes name seed =
  match name with
  | "rewrite_hot" -> rewrite_hot sizes seed
  | "rewrite_cold" -> rewrite_cold sizes seed
  | "plan_data" -> plan_data sizes seed
  | "catalog_churn" -> catalog_churn sizes seed
  | other -> invalid_arg ("unknown workload " ^ other)

let catalog_text t =
  String.concat "" (List.map (fun v -> Query.to_string v ^ ".\n") t.views)

let facts_text t = Format.asprintf "%a" Database.pp_facts t.base
