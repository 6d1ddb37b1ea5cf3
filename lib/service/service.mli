(** The resident rewriting service: a shared {!Catalog} plus a
    canonical-query rewrite cache and request statistics.

    Requests are keyed by the order-insensitive canonical form of the
    query ({!Vplan_rewrite.Normalize.canonicalize}): every request is
    renamed into canonical variables and CoreCover runs on the
    canonical query (reusing the catalog's precomputed view classes).
    Because the canonical form is complete for isomorphism, two
    requests share a cache entry iff they are the same query up to
    variable renaming and subgoal reordering — and because {e every}
    request goes through the canonical query, a cache hit is
    observationally identical to a fresh run: same rewritings, same
    completeness, in the caller's own variables.

    A cache entry holds the result in canonical variables: the
    rewritings, the minimized query and the query's body predicates,
    plus the rewritings pre-rendered as a {!Reply_template} whose holes
    are the canonical query's variables.  One resolve path (canonicalize,
    probe, run, publish) serves the rewrite cache and the planning
    context's plan cache ({!plan}); two projections read a rewrite.
    {!rewrite} renames the result back into the caller's variables as
    [Query.t] values.  {!rewrite_reply} — the wire protocol's path —
    returns the template with the caller's name for each slot, so a hit
    renders by splicing bytes: no renaming, no [Query.t], no formatter.

    One admission rule governs both caches, the rewrite cache and the
    planning context's plan cache ({!plan}):
    - only a [Complete] result is stored.  A [Truncated] one reflects
      the requester's budget or cover cap, not the query, so it bypasses
      the cache: it is neither stored nor ever served;
    - an entry keeps its cover count (a rewrite's rewritings, a plan's
      candidates) and answers a request only when that count is below
      the request's cover cap.  A rewrite with no [max_covers] is
      unbounded; a plan with none runs CoreCover{^ *} under
      {!Vplan_rewrite.Corecover.default_max_results}.  Under such a cap
      the request's own run would have found every cover and been
      [Complete] with the same result; any other request runs as a miss,
      so a capped request gets exactly what a fresh service gives it;
    - a budget (step budget, deadline) is not consulted: a hit does no
      search work, so it is served under any budget;
    - a query whose canonicalization blows its search cap bypasses the
      cache and runs as-is.

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
  source : source;
  ms : float;  (** wall-clock latency of resolving this request *)
}

(** A rewrite answer for the wire: what {!outcome} says, with the
    rewritings left as a template.  [Reply_template.render buf
    reply_lines reply_names] appends them in the caller's variables,
    byte for byte what [Format] prints for {!outcome}'s [rewritings]
    (one [Query.pp] per line). *)
type reply = {
  reply_count : int;  (** number of rewritings *)
  reply_source : source;
  reply_completeness : Corecover.completeness;
  reply_ms : float;  (** wall-clock latency of resolving this request *)
  reply_lines : Reply_template.t;
  reply_names : string array;  (** the caller's name for each slot *)
  reply_classification : string;
      (** the query's GYO class, ["acyclic"] or ["cyclic"]: computed
          once per cache entry, on the canonical query *)
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
      (** catalog swaps ({!set_catalog}) over the service's lifetime
          that restart the generation sequence: those whose catalog was
          not built from the live one by one add or remove, such as a
          [catalog load].  [generation] alone cannot show that a reload
          happened; the other counters deliberately survive the swap. *)
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
  plan_classification : string;
      (** the query's GYO class, ["acyclic"] or ["cyclic"]: computed
          once per cached plan, on the canonical query *)
  plan_source : source;
      (** [Hit]: served from the planning context's plan cache; [Miss]:
          chosen now and cached; [Bypass]: chosen now, not cacheable *)
  plan_ms : float;  (** wall-clock latency of this request *)
}

(** [create catalog] — [cache_capacity] (default [512]) bounds the
    number of cached rewrite results. *)
val create : ?cache_capacity:int -> Catalog.t -> t

val catalog : t -> Catalog.t

(** [set_catalog t c] swaps the catalog in and drops every cache entry
    [c] can change.  When [c] was built from the live catalog by one
    {!Catalog.add_views} or {!Catalog.remove_views}
    ({!Catalog.touched}), an entry stays if every representative the
    mutation touched has a body predicate the entry's canonical query
    lacks: such a class has no view tuple over the query, so the
    rewritings are those a fresh service on [c] computes, in the same
    order.  Any other catalog clears the cache and counts a generation
    reset.  The planning context is always dropped.  Counters survive
    (they describe the service's lifetime). *)
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
    the service — and a cached entry answers under the admission rule
    above.  [domains] fans the per-view work of a miss out.  A
    [Width_limit] input error raises as usual. *)
val rewrite :
  ?budget:Vplan_core.Budget.t ->
  ?max_covers:int ->
  ?domains:int ->
  t ->
  Query.t ->
  outcome

(** [rewrite_reply t query] is {!rewrite}'s request, answered as a
    {!reply}: the same cache, counters and budgets, without building
    renamed [Query.t] values.
    @raise Vplan_core.Vplan_error.Error [Invariant] if canonicalization
    ever produced a non-bijective renaming. *)
val rewrite_reply :
  ?budget:Vplan_core.Budget.t ->
  ?max_covers:int ->
  ?domains:int ->
  t ->
  Query.t ->
  reply

(** [rewrite_batch t queries] serves independent requests over a domain
    pool, returning {!rewrite_reply} answers in request order.
    [domains] is the pool width (each request runs CoreCover
    sequentially); [make_budget] is called once per request {e in the
    worker}, so deadlines start when the request is picked up, not when
    the batch was submitted. *)
val rewrite_batch :
  ?make_budget:(unit -> Vplan_core.Budget.t option) ->
  ?max_covers:int ->
  ?domains:int ->
  t ->
  Query.t list ->
  reply list

(** [plan t query] serves an end-to-end request through
    {!Vplan_cost.Optimizer.plan}: CoreCover{^ *} candidates (all minimal
    rewritings, reusing the catalog's view classes; [budget] and
    [max_covers] bound the enumeration), then the branch-and-bound
    selection engine over them.  The service caches one planning context
    per (catalog, base) pair — the statistics-derived estimation catalog
    that ranks candidates, the materialized views, the cross-request
    subplan memo and the plan cache — and drops it whenever either
    changes, so repeated plans over a stable catalog share join
    evaluations.  [None] when the query has no rewriting.

    The plan is {e computed on the canonical query} and renamed back
    into the caller's variables, like a rewrite: the request is
    canonicalized and the context's plan cache (an LRU of the service's
    [cache_capacity] finished choices, keyed by the cost mode and the
    canonical query) probed.  A miss plans the canonical query and
    publishes the choice only when CoreCover{^ *} was [Complete] and the
    context is still the live one; hits follow the service's one
    admission rule (above).  So a hit returns what a miss returns, and
    renamed or permuted variants of one query get the same plan and
    cost.  A selection cut short by its budget raises (selection has no
    partial result).  A hit's trace has one [plan_cache_hit] span in place of the
    CoreCover and selection phases.

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
  an_profile : Vplan_obs.Trace.span list;  (** the operator profile ({!Vplan_obs.Profile}) *)
  an_ms : float;
}

(** [analyze t query] — {!plan}, then {e execute} the chosen plan
    against the planning context's resident view image
    ({!Vplan_cost.Optimizer.image}) with an operator profile attached
    and per-operator cardinality estimates from the load-time
    statistics: the [explain analyze] backend.  The plan half follows
    {!plan}'s cache and hit rules (computed on the canonical query);
    execution, the profile and the q-error are observations of this
    request's run and happen on every request.  The per-query q-error
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
