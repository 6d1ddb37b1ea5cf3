open Vplan_cq
module Corecover = Vplan_rewrite.Corecover
module Normalize = Vplan_rewrite.Normalize
module View_tuple = Vplan_views.View_tuple
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
module Trace = Vplan_obs.Trace
module Exec = Vplan_exec.Exec
module Hypergraph = Vplan_hypergraph.Hypergraph

let requests_total = Metrics.counter "vplan_rewrite_requests_total"
let bypasses_total = Metrics.counter "vplan_rewrite_bypasses_total"
let truncated_total = Metrics.counter "vplan_rewrite_truncated_total"
let plan_requests_total = Metrics.counter "vplan_plan_requests_total"
let analyze_requests_total = Metrics.counter "vplan_analyze_requests_total"
let generation_resets_total = Metrics.counter "vplan_generation_resets_total"
let request_ms = Metrics.histogram "vplan_request_ms"
let plan_cache_family = Rewrite_cache.family "vplan_plan_cache"

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

type reply = {
  reply_count : int;
  reply_source : source;
  reply_completeness : Corecover.completeness;
  reply_ms : float;
  reply_lines : Reply_template.t;
  reply_names : string array;
  reply_classification : string;
}

type plan_outcome = {
  plan_rewriting : Query.t;
  plan_order : Atom.t list;
  plan_cost : plan_cost;
  plan_candidates : int;
  plan_classification : string;
  plan_source : source;
  plan_ms : float;
}

(* What a cache entry of either kind carries: the query it was computed
   on (the canonical query, or the request itself when it is
   uncacheable), its cover count, which decides the capped requests it
   may answer, and what a request reads.  The canonical query is kept so
   that a hit compares it against the requested one: even a (never
   observed) canonical-form collision could only cause a recompute,
   never a wrong answer. *)
type 'a entry = { canon : Query.t; count : int; value : 'a }

(* A CoreCover result as a rewrite request reads it: no view tuples,
   cores or classes.  [vars] is [Query.vars canon], the template's
   slots; [preds] are its body predicates, which decide whether the
   entry survives a catalog mutation. *)
type rewritten = {
  vars : string array;
  preds : string list;
  minimized_query : Query.t;
  rewritings : Query.t list;
  template : Reply_template.t;
  classification : string;
}

(* A loaded base database with its statistics, published together. *)
type data = { base : Database.t; stats : Stats.t }

(* A plan choice in the variables of the query it was chosen for, with
   the GYO classes of that query and of the chosen join order. *)
type chosen = {
  rewriting : Query.t;
  order : Atom.t list;
  cost : plan_cost;
  query_class : string;
  order_class : string;
}

(* The planning context of one (catalog, data) pair: compared by
   physical identity — any catalog swap or base load produces fresh
   values, so a stale context is never reused, and neither are the plan
   choices it caches. *)
type plan_ctx = {
  p_cat : Catalog.t;
  p_data : data;
  p_ctx : Optimizer.t;
  p_plans : chosen option entry Rewrite_cache.t;
      (* finished [Complete] selections, keyed like rewrite entries plus
         the cost mode; [count] is the candidate count and [None] a
         query with no rewriting *)
}

(* percentile window: the most recent [lat_window] request latencies *)
let lat_window = 1024

type t = {
  mutable cat : Catalog.t;
  cache : rewritten entry Rewrite_cache.t;
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
    cache = Rewrite_cache.create ~capacity:cache_capacity ();
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

(* A touched class whose representative has a body predicate the query
   lacks has no view tuple over it, in the old catalog or the new one;
   when every touched class is such, the classes with tuples keep their
   representatives and their relative order, so CoreCover's result on
   the entry's query is unchanged. *)
let unaffected touched e =
  List.for_all
    (fun (v : Query.t) ->
      List.exists (fun (a : Atom.t) -> not (List.mem a.Atom.pred e.value.preds)) v.body)
    touched

let set_catalog t cat =
  locked t (fun () ->
      (match Catalog.touched cat ~parent:t.cat with
      | Some touched -> Rewrite_cache.retain t.cache (fun _ e -> unaffected touched e)
      | None ->
          Rewrite_cache.clear t.cache;
          (* the new catalog restarts its generation sequence; counting
             those swaps lets lifetime counters survive a [catalog load] *)
          t.generation_resets <- t.generation_resets + 1;
          Metrics.incr generation_resets_total);
      t.cat <- cat;
      t.pctx <- None)

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

(* How a served request moves the service's accounting: a rewrite by
   whether it probed the cache and how complete it was, an analyze by
   the q-errors of its run. *)
type served =
  | Rewrote of { probed : bool; completeness : Corecover.completeness }
  | Planned
  | Analyzed of { qerror : float; selections : (string * float) list }

(* The one request epilogue: the request's latency since [clock], into
   the request histogram and the counters of its kind.  Only rewrites
   enter the latency window. *)
let record t ~clock served =
  let ms = Budget.elapsed_ms clock in
  Metrics.observe request_ms ms;
  locked t (fun () ->
      match served with
      | Rewrote { probed; completeness } ->
          Metrics.incr requests_total;
          t.requests <- t.requests + 1;
          (* [bypasses] counts requests that never probed the cache
             (uncacheable canonicalization); a truncated request probed
             and missed, so it is already in the cache's miss counter *)
          if not probed then begin
            Metrics.incr bypasses_total;
            t.bypasses <- t.bypasses + 1
          end;
          (match completeness with
          | Corecover.Truncated _ ->
              Metrics.incr truncated_total;
              t.truncated <- t.truncated + 1
          | Corecover.Complete -> ());
          t.lat_ring.(t.lat_next mod lat_window) <- ms;
          t.lat_next <- t.lat_next + 1;
          t.lat_sum <- t.lat_sum +. ms;
          if ms > t.lat_max then t.lat_max <- ms
      | Planned ->
          Metrics.incr plan_requests_total;
          t.plan_requests <- t.plan_requests + 1
      | Analyzed { qerror; selections } ->
          Metrics.incr analyze_requests_total;
          if not (Float.is_nan qerror) then Metrics.observe estimate_qerror_h qerror;
          t.analyze_requests <- t.analyze_requests + 1;
          (* per-relation accuracy: selection estimates attribute
             directly to the scanned relation *)
          List.iter (fun (rel, q) -> Qerror.observe_rel t.qerrors rel q) selections);
  ms

let classify_body body =
  match Hypergraph.classify body with
  | Hypergraph.Acyclic _ -> "acyclic"
  | Hypergraph.Cyclic -> "cyclic"

let classification (q : Query.t) = classify_body q.Query.body

let invariant what = raise (Vplan_error.Error (Vplan_error.Invariant what))

let entry_of canon (r : Corecover.result) =
  let vars = Array.of_list (Query.vars canon) in
  {
    canon;
    count = List.length r.Corecover.rewritings;
    value =
      {
        vars;
        preds = Query.body_preds canon;
        minimized_query = r.Corecover.minimized_query;
        rewritings = r.Corecover.rewritings;
        template =
          (let atoms = List.map (fun (tv, _) -> tv.View_tuple.atom) r.Corecover.cores in
           Reply_template.make ~vars ~head:r.Corecover.minimized_query.Query.head
             ~atoms:(Array.of_list atoms) r.Corecover.covers);
        (* [canon] is isomorphic to every query the entry answers, so
           one GYO run labels all of them *)
        classification = classification canon;
      };
  }

(* [sigma] maps caller variables to canonical ones, bijectively and only
   var-to-var: each canonical variable's caller name, one binding per
   variable of the request. *)
let caller_bindings sigma =
  List.map
    (fun (x, term) ->
      match term with
      | Term.Var y -> (y, x)
      | Term.Cst _ -> invariant ("canonicalization bound " ^ x ^ " to a constant"))
    (Subst.bindings sigma)

(* The caller's name for each of the template's slots [vars]. *)
let names_of vars sigma =
  let caller = Hashtbl.create (Array.length vars) in
  List.iter (fun (y, x) -> Hashtbl.replace caller y x) (caller_bindings sigma);
  Array.map
    (fun y ->
      match Hashtbl.find_opt caller y with
      | Some x -> x
      | None -> invariant ("canonical variable " ^ y ^ " has no caller name"))
    vars

(* sigma^-1 as a substitution: canonical terms back into the caller's. *)
let unrename sigma =
  Subst.of_list (List.map (fun (y, x) -> (y, Term.Var x)) (caller_bindings sigma))

(* One request through one of the service's caches: the entry that
   answers it, and [sigma] from the caller's variables to the entry's
   ([None]: an uncacheable query, run as-is, so the entry is already in
   the caller's variables). *)
type 'a resolved = {
  entry : 'a entry;
  sigma : Subst.t option;
  source : source;
  completeness : Corecover.completeness;
}

(* Canonicalize, probe, run, publish: written once for rewrites and
   plans, with the one admission rule of both caches.  A cached entry
   answers a request only when its cover count is below the request's
   cover cap [cap] ([None]: unbounded).  The request's own run would then
   have found every cover before the cap could fire, so it would have
   been [Complete] with this very result; [<] is exact, since
   [Set_cover.enumerate] can report the cap as fired when exactly [cap]
   covers exist.  The request's budget is not consulted: a hit does no
   search work, so it is served under any step budget or deadline.
   [cache] is touched only under the lock and only while [live ()]
   holds — the catalog or planning context the request started on is
   still the service's — so a result computed against a replaced one is
   never published.  [run q] computes the entry for [q] (the canonical
   query, or the request itself when it is uncacheable) and only a
   [Complete] one is published.  The caller renames the entry back
   through [sigma]. *)
let through t ~cache ~live ~key ~cap ~run query =
  match Normalize.canonicalize query with
  | None ->
      (* canonical-labeling search blew its cap: uncacheable *)
      let entry, completeness = run query in
      { entry; sigma = None; source = Bypass; completeness }
  | Some (canon, sigma) -> (
      let key = key canon in
      let accept e =
        Query.equal e.canon canon && match cap with None -> true | Some c -> e.count < c
      in
      let cached =
        locked t (fun () -> if live () then Rewrite_cache.find ~accept cache key else None)
      in
      match cached with
      | Some entry -> { entry; sigma = Some sigma; source = Hit; completeness = Corecover.Complete }
      | None ->
          let entry, completeness = run canon in
          let source =
            match completeness with
            | Corecover.Complete ->
                locked t (fun () -> if live () then Rewrite_cache.add cache key entry);
                Miss
            | Corecover.Truncated _ -> Bypass
          in
          { entry; sigma = Some sigma; source; completeness })

(* One rewrite request, resolved: the entry that answers it and the
   caller's names for its slots; [rewrite] and [rewrite_reply] differ
   only in how they project the result. *)
let resolve ?budget ?max_covers ~domains t query =
  let clock = Budget.create () in
  (* snapshot the catalog: a concurrent [set_catalog] must not mix
     generations within one request *)
  let cat = locked t (fun () -> t.cat) in
  let r =
    through t ~cache:t.cache
      ~live:(fun () -> t.cat == cat)
      ~key:Query.to_string ~cap:max_covers
      ~run:(fun q ->
        let r =
          Corecover.gmrs ?budget ?max_covers
            ~view_classes:(Catalog.view_classes cat)
            ~domains ~query:q ~views:(Catalog.views cat) ()
        in
        (entry_of q r, r.Corecover.completeness))
      query
  in
  let e = r.entry.value in
  let names = match r.sigma with None -> e.vars | Some sigma -> names_of e.vars sigma in
  let ms =
    record t ~clock (Rewrote { probed = r.sigma <> None; completeness = r.completeness })
  in
  ( {
      reply_count = r.entry.count;
      reply_source = r.source;
      reply_completeness = r.completeness;
      reply_ms = ms;
      reply_lines = e.template;
      reply_names = names;
      reply_classification = e.classification;
    },
    e )

let rewrite_reply ?budget ?max_covers ?(domains = 1) t query =
  fst (resolve ?budget ?max_covers ~domains t query)

let rewrite ?budget ?max_covers ?(domains = 1) t query =
  let reply, e = resolve ?budget ?max_covers ~domains t query in
  let rewritings, minimized_query =
    (* an uncacheable request's entry is already in its own variables *)
    if reply.reply_names == e.vars then (e.rewritings, e.minimized_query)
    else
      let inv =
        Subst.of_list
          (Array.to_list (Array.map2 (fun y x -> (y, Term.Var x)) e.vars reply.reply_names))
      in
      (List.map (Query.apply inv) e.rewritings, Query.apply inv e.minimized_query)
  in
  {
    rewritings;
    minimized_query;
    completeness = reply.reply_completeness;
    source = reply.reply_source;
    ms = reply.reply_ms;
  }

let rewrite_batch ?(make_budget = fun () -> None) ?max_covers ?(domains = 1) t
    queries =
  Parallel.map ~domains
    (fun query -> rewrite_reply ?budget:(make_budget ()) ?max_covers t query)
    queries

(* Reuse the cached planning context when both the catalog and the data
   are the ones it was built for; otherwise build one (outside the lock:
   it folds a join profile per view) and publish it, preferring a
   concurrently-published equal context so the memo and the plan cache
   stay shared. *)
let plan_ctx t =
  let cat, data = locked t (fun () -> (t.cat, t.data)) in
  match data with
  | None -> raise (Vplan_error.Error Vplan_error.No_data)
  | Some data -> (
      let live c = c.p_cat == cat && c.p_data == data in
      match locked t (fun () -> t.pctx) with
      | Some c when live c -> c
      | _ ->
          let fresh =
            {
              p_cat = cat;
              p_data = data;
              p_ctx =
                Optimizer.create ~view_classes:(Catalog.view_classes cat)
                  ~stats:data.stats ~views:(Catalog.views cat) data.base;
              p_plans =
                Rewrite_cache.create ~family:plan_cache_family
                  ~capacity:(Rewrite_cache.counters t.cache).Rewrite_cache.capacity ();
            }
          in
          locked t (fun () ->
              match t.pctx with
              | Some c when live c -> c
              | _ ->
                  t.pctx <- Some fresh;
                  fresh))

let plan_entry_of ~cost_mode canon ((r : Corecover.result), choice) =
  let cost c =
    match cost_mode with Exact -> Cells (int_of_float c) | Estimated -> Cells_est c
  in
  {
    canon;
    count = List.length r.Corecover.rewritings;
    value =
      Option.map
        (fun (c : _ Vplan_cost.Select.choice) ->
          {
            rewriting = c.rewriting;
            order = c.plan;
            cost = cost c.cost;
            (* isomorphic queries share their classes: one GYO run each
               per entry *)
            query_class = classification canon;
            order_class = classify_body c.plan;
          })
        choice;
  }

(* One plan request, resolved in the live planning context: the entry
   and the choice in the caller's variables.  Every choice is computed
   on the canonical query, so a hit and a miss return the same plan.
   CoreCover* enumerates under [default_max_results] when the request
   sets no cap, so that is the cap a hit is admitted under. *)
let plan_choice ?budget ?max_covers ~domains ~cost_mode t query =
  let c = plan_ctx t in
  let tag = match cost_mode with Exact -> "exact " | Estimated -> "estimated " in
  let r =
    through t ~cache:c.p_plans
      ~live:(fun () -> match t.pctx with Some l -> l == c | None -> false)
      ~key:(fun canon -> tag ^ Query.to_string canon)
      ~cap:(Some (Option.value max_covers ~default:Corecover.default_max_results))
      ~run:(fun q ->
        let ((r, _) as planned) =
          Optimizer.plan ?budget ?max_covers ~domains (Optimizer.M2 cost_mode) c.p_ctx q
        in
        (plan_entry_of ~cost_mode q planned, r.Corecover.completeness))
      query
  in
  let unrenamed () =
    match (r.sigma, r.entry.value) with
    | None, choice | _, (None as choice) -> choice
    | Some sigma, Some ch ->
        let inv = unrename sigma in
        Some
          {
            ch with
            rewriting = Query.apply inv ch.rewriting;
            order = List.map (Atom.apply inv) ch.order;
          }
  in
  let choice =
    match r.source with
    | Hit ->
        (* no CoreCover or selection phase ran: explain's tree says why *)
        Trace.with_span "plan_cache_hit" (fun () ->
            Trace.annotate "candidates" (float_of_int r.entry.count);
            unrenamed ())
    | Miss | Bypass -> unrenamed ()
  in
  (c, r, choice)

let plan ?budget ?max_covers ?(domains = 1) ?(cost_mode = Exact) t query =
  let clock = Budget.create () in
  let _, r, choice = plan_choice ?budget ?max_covers ~domains ~cost_mode t query in
  let ms = record t ~clock Planned in
  Option.map
    (fun ch ->
      {
        plan_rewriting = ch.rewriting;
        plan_order = ch.order;
        plan_cost = ch.cost;
        plan_candidates = r.entry.count;
        plan_classification = ch.query_class;
        plan_source = r.source;
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
  an_profile : Trace.span list;
  an_ms : float;
}

let analyze ?budget ?max_covers ?(domains = 1) ?(cost_mode = Exact) t query =
  let clock = Budget.create () in
  match plan_choice ?budget ?max_covers ~domains ~cost_mode t query with
  | _, _, None -> None
  | c, r, Some ch ->
      let ctx = c.p_ctx in
      (* the context's resident view image (first materialized here when
         only estimated-mode plans have run on this context) *)
      let img = Optimizer.image ctx in
      (* the per-operator estimates come from the context's statistics,
         folded in the order the engine actually ran.  The catalog itself
         was built with the context; the phase marks, in explain's tree,
         where analyze takes its estimator from *)
      let estimate =
        Obs.phase "estimate" (fun () -> Estimate.cardinality (Optimizer.estimate ctx))
      in
      let ordered = Query.make_exn ch.rewriting.Query.head ch.order in
      let profile = Profile.create ~name:(Query.to_string ch.rewriting) () in
      let answers =
        Obs.phase "analyze_exec" (fun () ->
            Exec.answers ?budget ~profile ~estimate img ordered)
      in
      let spans = Profile.finish profile in
      let qerror = Profile.max_qerror spans in
      let ms =
        record t ~clock (Analyzed { qerror; selections = Profile.selection_qerrors spans })
      in
      Some
        {
          an_rewriting = ch.rewriting;
          an_order = ch.order;
          an_cost = ch.cost;
          an_candidates = r.entry.count;
          an_answers = Vplan_relational.Relation.cardinality answers;
          an_classification = ch.order_class;
          an_qerror = qerror;
          an_profile = spans;
          an_ms = ms;
        }

let stats t =
  (* every request's [record] takes the lock: copy the latency window
     under it, sort the copy outside *)
  let window, s =
    locked t (fun () ->
        let c = Rewrite_cache.counters t.cache in
        ( Array.sub t.lat_ring 0 (min t.lat_next lat_window),
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
            latency =
              {
                count = t.lat_next;
                mean_ms =
                  (if t.lat_next = 0 then 0. else t.lat_sum /. float_of_int t.lat_next);
                p50_ms = 0.;
                p95_ms = 0.;
                max_ms = t.lat_max;
              };
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
          } ))
  in
  Array.sort compare window;
  {
    s with
    latency =
      {
        s.latency with
        p50_ms = Metrics.percentile window 0.50;
        p95_ms = Metrics.percentile window 0.95;
      };
  }

let subplan_counters t =
  locked t (fun () -> Option.map (fun c -> Subplan.counters (Optimizer.memo c.p_ctx)) t.pctx)
