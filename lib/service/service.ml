open Vplan_cq
module Corecover = Vplan_rewrite.Corecover
module Normalize = Vplan_rewrite.Normalize
module Parallel = Vplan_parallel.Parallel
module Budget = Vplan_core.Budget
module Vplan_error = Vplan_core.Vplan_error
module Database = Vplan_relational.Database
module Subplan = Vplan_cost.Subplan
module Optimizer = Vplan_cost.Optimizer
module Estimate = Vplan_cost.Estimate
module Stats = Vplan_stats.Stats
module Qerror = Vplan_stats.Qerror
module Metrics = Vplan_obs.Metrics
module Obs = Vplan_obs.Obs
module Profile = Vplan_obs.Profile
module Exec = Vplan_exec.Exec
module Interned = Vplan_exec.Interned
module Hypergraph = Vplan_hypergraph.Hypergraph

let requests_total = Metrics.counter "vplan_rewrite_requests_total"
let bypasses_total = Metrics.counter "vplan_rewrite_bypasses_total"
let truncated_total = Metrics.counter "vplan_rewrite_truncated_total"
let plan_requests_total = Metrics.counter "vplan_plan_requests_total"
let analyze_requests_total = Metrics.counter "vplan_analyze_requests_total"
let generation_resets_total = Metrics.counter "vplan_generation_resets_total"
let request_ms = Metrics.histogram "vplan_request_ms"

let estimate_qerror_h =
  Metrics.histogram
    ~help:"per-query q-error of analyze requests (max est/actual row ratio \
           over the operator tree, dimensionless)"
    "vplan_estimate_qerror"

type source = Hit | Miss | Bypass

type outcome = {
  rewritings : Query.t list;
  minimized_query : Query.t;
  completeness : Corecover.completeness;
  corecover_stats : Corecover.stats;
  source : source;
  ms : float;
}

type latency = {
  count : int;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  max_ms : float;
}

type rel_accuracy = {
  acc_samples : int;
  acc_mean_q : float;
  acc_max_q : float;
}

type stats = {
  generation : int;
  num_views : int;
  num_view_classes : int;
  requests : int;
  hits : int;
  misses : int;
  bypasses : int;
  evictions : int;
  cache_size : int;
  cache_capacity : int;
  truncated : int;
  plan_requests : int;
  analyze_requests : int;
  generation_resets : int;
  data_relations : int;
  data_rows : int;
  latency : latency;
  estimate_accuracy : (string * rel_accuracy) list;
}

type cost_mode = Optimizer.mode = Exact | Estimated

type plan_cost = Cells of int | Cells_est of float

type plan_outcome = {
  plan_rewriting : Query.t;
  plan_order : Atom.t list;
  plan_cost : plan_cost;
  plan_candidates : int;
  plan_ms : float;
}

(* Cached entries keep the canonical query alongside the result: on a
   hit the requested canonical form is compared against it, so even a
   (never observed) canonical-form collision could only cause a recompute,
   never a wrong answer. *)
type entry = { canon : Query.t; result : Corecover.result }

(* A loaded base database with its statistics, published together. *)
type data = { base : Database.t; stats : Stats.t }

(* The planning context of one (catalog, data) pair: compared by
   physical identity — any catalog swap or base load produces fresh
   values, so a stale context is never reused. *)
type plan_ctx = { p_cat : Catalog.t; p_data : data; p_ctx : Optimizer.t }

(* percentile window: the most recent [lat_window] request latencies *)
let lat_window = 1024

type t = {
  mutable cat : Catalog.t;
  cache : entry Rewrite_cache.t;
  lock : Mutex.t;
  mutable requests : int;
  mutable bypasses : int;
  mutable truncated : int;
  mutable data : data option;
  mutable pctx : plan_ctx option;
  mutable plan_requests : int;
  mutable analyze_requests : int;
  mutable generation_resets : int;
  qerrors : Qerror.by_rel; (* per-relation estimate accuracy, under [lock] *)
  lat_ring : float array;
  mutable lat_next : int;  (* total latencies ever recorded *)
  mutable lat_sum : float;
  mutable lat_max : float;
}

let create ?(cache_capacity = 512) cat =
  {
    cat;
    cache = Rewrite_cache.create ~capacity:cache_capacity;
    lock = Mutex.create ();
    requests = 0;
    bypasses = 0;
    truncated = 0;
    data = None;
    pctx = None;
    plan_requests = 0;
    analyze_requests = 0;
    generation_resets = 0;
    qerrors = Qerror.create_registry ();
    lat_ring = Array.make lat_window 0.;
    lat_next = 0;
    lat_sum = 0.;
    lat_max = 0.;
  }

let catalog t = t.cat

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let set_catalog t cat =
  locked t (fun () ->
      t.cat <- cat;
      Rewrite_cache.clear t.cache;
      t.pctx <- None;
      (* the new catalog restarts its generation sequence; counting
         swaps here lets lifetime counters survive a [catalog load] *)
      t.generation_resets <- t.generation_resets + 1;
      Metrics.incr generation_resets_total)

let base t = locked t (fun () -> Option.map (fun d -> d.base) t.data)
let base_stats t = locked t (fun () -> Option.map (fun d -> d.stats) t.data)

let set_base ?stats t db =
  (* statistics are collected (one scan per relation) outside the lock;
     a recovered snapshot passes its persisted stats and skips the
     scan *)
  let stats =
    match stats with
    | Some s -> s
    | None -> Obs.phase "stats_collect" (fun () -> Stats.collect db)
  in
  locked t (fun () ->
      t.data <- Some { base = db; stats };
      t.pctx <- None)

(* [sigma] maps caller variables to canonical ones, bijectively and only
   var-to-var; its inverse renames canonical-variable results back. *)
let invert sigma =
  Subst.of_list
    (List.map
       (fun (x, term) ->
         match term with
         | Term.Var y -> (y, Term.Var x)
         | Term.Cst _ -> assert false)
       (Subst.bindings sigma))

let rename_result inv (r : Corecover.result) =
  ( List.map (fun p -> Query.apply inv p) r.Corecover.rewritings,
    Query.apply inv r.Corecover.minimized_query )

let record t ~probed ~completeness ~ms =
  Metrics.incr requests_total;
  Metrics.observe request_ms ms;
  if not probed then Metrics.incr bypasses_total;
  (match completeness with
  | Corecover.Truncated _ -> Metrics.incr truncated_total
  | Corecover.Complete -> ());
  locked t (fun () ->
      t.requests <- t.requests + 1;
      (* [bypasses] counts requests that never probed the cache
         (uncacheable canonicalization); a truncated request probed and
         missed, so it is already in the cache's miss counter *)
      if not probed then t.bypasses <- t.bypasses + 1;
      (match completeness with
      | Corecover.Truncated _ -> t.truncated <- t.truncated + 1
      | Corecover.Complete -> ());
      t.lat_ring.(t.lat_next mod lat_window) <- ms;
      t.lat_next <- t.lat_next + 1;
      t.lat_sum <- t.lat_sum +. ms;
      if ms > t.lat_max then t.lat_max <- ms)

let outcome_of ~source ~ms rewritings minimized_query (r : Corecover.result) =
  {
    rewritings;
    minimized_query;
    completeness = r.Corecover.completeness;
    corecover_stats = r.Corecover.stats;
    source;
    ms;
  }

let rewrite ?budget ?max_covers ?(domains = 1) t query =
  let clock = Budget.create () in
  let finish ~probed ~source (rewritings, minimized_query) r =
    let ms = Budget.elapsed_ms clock in
    record t ~probed ~completeness:r.Corecover.completeness ~ms;
    outcome_of ~source ~ms rewritings minimized_query r
  in
  (* snapshot the catalog: a concurrent [set_catalog] must not mix
     generations within one request *)
  let cat = locked t (fun () -> t.cat) in
  let run q =
    Corecover.gmrs ?budget ?max_covers
      ~view_classes:(Catalog.view_classes cat)
      ~domains ~query:q ~views:(Catalog.views cat) ()
  in
  match Normalize.canonicalize query with
  | None ->
      (* canonical-labeling search blew its cap: uncacheable, run as-is *)
      let r = run query in
      finish ~probed:false ~source:Bypass
        (r.Corecover.rewritings, r.Corecover.minimized_query)
        r
  | Some (canon, sigma) -> (
      let key = Query.to_string canon in
      let inv = invert sigma in
      let cached =
        locked t (fun () ->
            if t.cat != cat then None
            else
              match Rewrite_cache.find t.cache key with
              | Some e when Query.equal e.canon canon -> Some e.result
              | Some _ | None -> None)
      in
      match cached with
      | Some r -> finish ~probed:true ~source:Hit (rename_result inv r) r
      | None ->
          let r = run canon in
          let source =
            match r.Corecover.completeness with
            | Corecover.Complete ->
                locked t (fun () ->
                    (* only publish results computed against the live
                       catalog generation *)
                    if t.cat == cat then Rewrite_cache.add t.cache key { canon; result = r });
                Miss
            | Corecover.Truncated _ -> Bypass
          in
          finish ~probed:true ~source (rename_result inv r) r)

let rewrite_batch ?(make_budget = fun () -> None) ?max_covers ?(domains = 1) t
    queries =
  Parallel.map ~domains
    (fun query -> rewrite ?budget:(make_budget ()) ?max_covers t query)
    queries

(* Reuse the cached planning context when both the catalog and the data
   are the ones it was built for; otherwise build one (outside the lock:
   it folds a join profile per view) and publish it, preferring a
   concurrently-published equal context so the memo stays shared. *)
let plan_ctx t =
  let cat, data = locked t (fun () -> (t.cat, t.data)) in
  match data with
  | None -> raise (Vplan_error.Error Vplan_error.No_data)
  | Some data -> (
      let live c = c.p_cat == cat && c.p_data == data in
      match locked t (fun () -> t.pctx) with
      | Some c when live c -> c.p_ctx
      | _ ->
          let fresh =
            Optimizer.create ~view_classes:(Catalog.view_classes cat) ~stats:data.stats
              ~views:(Catalog.views cat) data.base
          in
          locked t (fun () ->
              match t.pctx with
              | Some c when live c -> c.p_ctx
              | _ ->
                  t.pctx <- Some { p_cat = cat; p_data = data; p_ctx = fresh };
                  fresh))

(* The pipeline under the request's budget, with the chosen M2 cost in
   the mode's unit. *)
let plan_choice ?budget ?max_covers ~domains ~cost_mode ctx query =
  let r, choice =
    Optimizer.plan ?budget ?max_covers ~domains (Optimizer.M2 cost_mode) ctx query
  in
  let cost c =
    match cost_mode with Exact -> Cells (int_of_float c) | Estimated -> Cells_est c
  in
  ( r,
    Option.map
      (fun (c : _ Vplan_cost.Select.choice) -> (c.rewriting, c.plan, cost c.cost))
      choice )

let plan ?budget ?max_covers ?(domains = 1) ?(cost_mode = Exact) t query =
  let clock = Budget.create () in
  let r, choice = plan_choice ?budget ?max_covers ~domains ~cost_mode (plan_ctx t) query in
  let ms = Budget.elapsed_ms clock in
  Metrics.incr plan_requests_total;
  Metrics.observe request_ms ms;
  locked t (fun () -> t.plan_requests <- t.plan_requests + 1);
  Option.map
    (fun (plan_rewriting, plan_order, plan_cost) ->
      {
        plan_rewriting;
        plan_order;
        plan_cost;
        plan_candidates = List.length r.Corecover.rewritings;
        plan_ms = ms;
      })
    choice

type analyze_outcome = {
  an_rewriting : Query.t;
  an_order : Atom.t list;
  an_cost : plan_cost;
  an_candidates : int;
  an_answers : int;
  an_classification : string;
  an_qerror : float;
  an_profile : Profile.node;
  an_ms : float;
}

let analyze ?budget ?max_covers ?(domains = 1) ?(cost_mode = Exact) t query =
  let clock = Budget.create () in
  let ctx = plan_ctx t in
  match plan_choice ?budget ?max_covers ~domains ~cost_mode ctx query with
  | _, None -> None
  | r, Some (rw, order, cost) ->
      let view_db = Optimizer.view_database ctx in
      (* the per-operator estimates come from the context's statistics,
         folded in the order the engine actually ran.  The catalog itself
         was built with the context; the phase marks, in explain's tree,
         where analyze takes its estimator from *)
      let estimate =
        Obs.phase "estimate" (fun () -> Estimate.cardinality (Optimizer.estimate ctx))
      in
      (* interned per request rather than cached on the plan context:
         analyze is a diagnosis surface, and forcing a shared lazy cell
         from concurrent worker domains is exactly the kind of subtlety
         it exists to debug, not to have *)
      let interned = Obs.phase "intern" (fun () -> Interned.of_database view_db) in
      let ordered = Query.make_exn rw.Query.head order in
      let profile = Profile.create ~name:(Query.to_string rw) () in
      let answers =
        Obs.phase "analyze_exec" (fun () ->
            Exec.answers ?budget ~profile ~estimate interned ordered)
      in
      let root = Profile.finish profile in
      let qerror = Profile.max_qerror root in
      let classification =
        match Hypergraph.classify ordered.Query.body with
        | Hypergraph.Acyclic _ -> "acyclic"
        | Hypergraph.Cyclic -> "cyclic"
      in
      if not (Float.is_nan qerror) then Metrics.observe estimate_qerror_h qerror;
      let ms = Budget.elapsed_ms clock in
      Metrics.incr analyze_requests_total;
      Metrics.observe request_ms ms;
      locked t (fun () ->
          t.analyze_requests <- t.analyze_requests + 1;
          (* per-relation accuracy: selection estimates attribute
             directly to the scanned relation *)
          List.iter
            (fun (n : Profile.node) ->
              if n.Profile.op = "select" && n.Profile.rows_out >= 0 then
                let q = Profile.qerror ~est:n.Profile.est_rows ~actual:n.Profile.rows_out in
                if not (Float.is_nan q) then Qerror.observe_rel t.qerrors n.Profile.name q)
            (Profile.preorder root));
      Some
        {
          an_rewriting = rw;
          an_order = order;
          an_cost = cost;
          an_candidates = List.length r.Corecover.rewritings;
          an_answers = Vplan_relational.Relation.cardinality answers;
          an_classification = classification;
          an_qerror = qerror;
          an_profile = root;
          an_ms = ms;
        }

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.
  | n -> sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let stats t =
  locked t (fun () ->
      let c = Rewrite_cache.counters t.cache in
      let n = min t.lat_next lat_window in
      let window = Array.sub t.lat_ring 0 n in
      Array.sort compare window;
      let latency =
        {
          count = t.lat_next;
          mean_ms = (if t.lat_next = 0 then 0. else t.lat_sum /. float_of_int t.lat_next);
          p50_ms = percentile window 0.50;
          p95_ms = percentile window 0.95;
          max_ms = t.lat_max;
        }
      in
      {
        generation = Catalog.generation t.cat;
        num_views = Catalog.num_views t.cat;
        num_view_classes = Catalog.num_classes t.cat;
        requests = t.requests;
        hits = c.Rewrite_cache.hits;
        misses = c.Rewrite_cache.misses;
        bypasses = t.bypasses;
        evictions = c.Rewrite_cache.evictions;
        cache_size = c.Rewrite_cache.size;
        cache_capacity = c.Rewrite_cache.capacity;
        truncated = t.truncated;
        plan_requests = t.plan_requests;
        analyze_requests = t.analyze_requests;
        generation_resets = t.generation_resets;
        data_relations =
          (match t.data with None -> 0 | Some d -> Stats.num_relations d.stats);
        data_rows =
          (match t.data with None -> 0 | Some d -> Stats.total_rows d.stats);
        latency;
        estimate_accuracy =
          List.map
            (fun (name, a) ->
              ( name,
                {
                  acc_samples = Qerror.count a;
                  acc_mean_q = Qerror.mean_q a;
                  acc_max_q = Qerror.max_q a;
                } ))
            (Qerror.bindings t.qerrors);
      })

let subplan_counters t =
  locked t (fun () -> Option.map (fun c -> Subplan.counters (Optimizer.memo c.p_ctx)) t.pctx)
