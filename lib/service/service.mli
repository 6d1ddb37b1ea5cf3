(** The resident rewriting service: a shared {!Catalog} plus a
    canonical-query rewrite cache and request statistics.

    Requests are keyed by the order-insensitive canonical form of the
    query ({!Vplan_rewrite.Normalize.canonicalize}): every request is
    renamed into canonical variables, CoreCover runs on the canonical
    query (reusing the catalog's precomputed view classes), and the
    result is renamed back into the caller's variables.  Because the
    canonical form is complete for isomorphism, two requests share a
    cache entry iff they are the same query up to variable renaming and
    subgoal reordering — and because {e every} request goes through the
    canonical query, a cache hit is observationally identical to a fresh
    run: same rewritings, same completeness, same statistics, in the
    caller's own variables.

    Only [Complete] results are cached.  A [Truncated] result reflects
    the requester's budget, not the query, so it bypasses the cache
    entirely: it is neither stored nor ever served to a later request.
    Conversely a cached [Complete] result is valid for any budget — the
    search it summarizes finished, so a larger budget could not change
    it.

    A service value may be shared across domains: the cache and the
    statistics are guarded by a mutex, and CoreCover itself runs outside
    the lock.  {!rewrite_batch} fans independent requests out over a
    domain pool ({!Vplan_parallel.Parallel.map}); answers are
    deterministic and order-preserving regardless of the worker count —
    only the hit/miss attribution of concurrent duplicates can vary. *)

open Vplan_cq
module Corecover := Vplan_rewrite.Corecover

type t

(** How a request was satisfied: from the cache, by a fresh CoreCover
    run (now cached if [Complete]), or by a fresh run that bypassed the
    cache ([Truncated] result, or a query whose canonicalization blew
    its search cap and is treated as uncacheable). *)
type source = Hit | Miss | Bypass

type outcome = {
  rewritings : Query.t list;  (** in the caller's variables *)
  minimized_query : Query.t;  (** in the caller's variables *)
  completeness : Corecover.completeness;
  corecover_stats : Corecover.stats;
  source : source;
  ms : float;  (** wall-clock latency of this request *)
}

type latency = {
  count : int;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  max_ms : float;
}

(** Running estimate accuracy for one relation, from the selection
    operators of {!analyze} runs: how many q-error samples, their
    geometric mean, and the worst. *)
type rel_accuracy = {
  acc_samples : int;
  acc_mean_q : float;
  acc_max_q : float;
}

type stats = {
  generation : int;
  num_views : int;
  num_view_classes : int;
  requests : int;  (** [requests = hits + misses + bypasses] *)
  hits : int;
  misses : int;  (** cache probes that missed, truncated runs included *)
  bypasses : int;  (** requests that never probed (uncacheable queries) *)
  evictions : int;
  cache_size : int;
  cache_capacity : int;
  truncated : int;  (** requests that returned a [Truncated] result *)
  plan_requests : int;  (** end-to-end {!plan} requests served *)
  analyze_requests : int;  (** {!analyze} requests served *)
  generation_resets : int;
      (** catalog swaps ({!set_catalog}) over the service's lifetime.  A
          swapped-in catalog restarts its generation sequence, so
          [generation] alone cannot show that a reload happened; the
          other counters deliberately survive the swap. *)
  data_relations : int;  (** base relations, from load-time statistics *)
  data_rows : int;  (** base tuples, from load-time statistics *)
  latency : latency;  (** over the most recent requests (bounded window) *)
  estimate_accuracy : (string * rel_accuracy) list;
      (** per-relation accuracy accumulated by {!analyze}, sorted by
          relation name; empty until the first analyze *)
}

(** How {!plan} costs candidate rewritings: [Exact] materializes the
    view relations and measures true intermediate sizes (the paper's
    cost model); [Estimated] derives join selectivities from the base
    statistics collected at load time and never materializes a view. *)
type cost_mode = Vplan_cost.Optimizer.mode = Exact | Estimated

type plan_cost =
  | Cells of int  (** true M2 cells against the materialized views *)
  | Cells_est of float  (** estimated M2 cells from statistics *)

(** Result of an end-to-end {!plan} request. *)
type plan_outcome = {
  plan_rewriting : Query.t;  (** chosen rewriting, filters appended if any *)
  plan_order : Atom.t list;  (** M2-optimal join order of its body *)
  plan_cost : plan_cost;
  plan_candidates : int;  (** candidate rewritings considered *)
  plan_ms : float;  (** wall-clock latency of this request *)
}

(** [create catalog] — [cache_capacity] (default [512]) bounds the
    number of cached rewrite results. *)
val create : ?cache_capacity:int -> Catalog.t -> t

val catalog : t -> Catalog.t

(** [set_catalog t c] swaps the catalog in and {e clears the cache}:
    cached rewritings are only valid against the view set they were
    computed with.  Counters survive (they describe the service's
    lifetime). *)
val set_catalog : t -> Catalog.t -> unit

(** The loaded base database, if any. *)
val base : t -> Vplan_relational.Database.t option

(** [set_base t db] loads the base database {!plan} costs candidates
    against, collecting per-relation statistics (cardinalities, distinct
    counts, histograms) unless [stats] supplies previously collected
    ones — the warm-restart path, where the snapshot carries them.
    Invalidates the service's planning context (estimation catalog,
    materialized view relations and the cross-request subplan memo); the
    rewrite cache is untouched — rewritings are database-independent. *)
val set_base : ?stats:Vplan_stats.Stats.t -> t -> Vplan_relational.Database.t -> unit

(** Statistics for the loaded base database, if any. *)
val base_stats : t -> Vplan_stats.Stats.t option

(** [rewrite t query] serves one request.  [budget]/[max_covers] bound
    the CoreCover run on a miss exactly as in {!Corecover.gmrs} — a
    fresh budget per request keeps one adversarial query from stalling
    the service.  [domains] fans the per-view work of a miss out.  A
    [Width_limit] input error raises as usual. *)
val rewrite :
  ?budget:Vplan_core.Budget.t ->
  ?max_covers:int ->
  ?domains:int ->
  t ->
  Query.t ->
  outcome

(** [rewrite_batch t queries] serves independent requests over a domain
    pool, returning outcomes in request order.  [domains] is the pool
    width (each request runs CoreCover sequentially); [make_budget] is
    called once per request {e in the worker}, so deadlines start when
    the request is picked up, not when the batch was submitted. *)
val rewrite_batch :
  ?make_budget:(unit -> Vplan_core.Budget.t option) ->
  ?max_covers:int ->
  ?domains:int ->
  t ->
  Query.t list ->
  outcome list

(** [plan t query] serves an end-to-end request through
    {!Vplan_cost.Optimizer.plan}: CoreCover{^ *} candidates (all minimal
    rewritings, reusing the catalog's view classes; [budget] and
    [max_covers] bound the enumeration), then the branch-and-bound
    selection engine over them.  The service caches one planning context
    per (catalog, base) pair — the statistics-derived estimation catalog
    that ranks candidates, the materialized views and the cross-request
    subplan memo — and drops it whenever either changes, so repeated
    plans over a stable catalog share join evaluations.  [None] when the
    query has no rewriting.

    [cost_mode] (default [Exact]) selects how candidates are costed;
    [Estimated] plans from the load-time statistics alone and never
    materializes a view.

    @raise Vplan_core.Vplan_error.Error [No_data] when no base database
    has been loaded ({!set_base}). *)
val plan :
  ?budget:Vplan_core.Budget.t ->
  ?max_covers:int ->
  ?domains:int ->
  ?cost_mode:cost_mode ->
  t ->
  Query.t ->
  plan_outcome option

(** Result of an {!analyze} request: the chosen plan, executed. *)
type analyze_outcome = {
  an_rewriting : Query.t;  (** chosen rewriting, as in {!plan_outcome} *)
  an_order : Atom.t list;  (** join order the engine was given *)
  an_cost : plan_cost;  (** the optimizer's predicted cost *)
  an_candidates : int;
  an_answers : int;  (** distinct answer tuples actually produced *)
  an_classification : string;  (** GYO class of the executed body *)
  an_qerror : float;
      (** per-query q-error: the worst estimated-vs-actual row ratio
          over the operator tree; [nan] when no operator had an
          estimate *)
  an_profile : Vplan_obs.Profile.node;  (** the operator tree *)
  an_ms : float;
}

(** [analyze t query] — {!plan}, then {e execute} the chosen plan
    against the materialized views with an operator profile attached
    and per-operator cardinality estimates from the load-time
    statistics: the [explain analyze] backend.  The per-query q-error
    feeds the [vplan_estimate_qerror] histogram and each selection's
    q-error feeds the per-relation accuracy in {!stats} — the feedback
    loop that shows when statistics have drifted.  [None] when the
    query has no rewriting.
    @raise Vplan_core.Vplan_error.Error [No_data] when no base database
    has been loaded. *)
val analyze :
  ?budget:Vplan_core.Budget.t ->
  ?max_covers:int ->
  ?domains:int ->
  ?cost_mode:cost_mode ->
  t ->
  Query.t ->
  analyze_outcome option

val stats : t -> stats

(** Counters of the cross-request subplan memo, when a planning context
    is live (at least one {!plan} since the last catalog/base change).
    Surfaced as gauges by the server's [metrics] command. *)
val subplan_counters : t -> Vplan_cost.Subplan.counters option
