(** Umbrella module: the public API of the vplan library.

    Re-exports every sub-library under one namespace so that users write
    [Vplan.Query], [Vplan.Corecover], ... without caring about the
    internal library split.

    Typical pipeline:
    {[
      let query = Vplan.Parser.parse_rule_exn
        "q(S, C) :- car(M, anderson), loc(anderson, C), part(S, M, C)." in
      let views = List.map Vplan.Parser.parse_rule_exn [ ... ] in
      let result = Vplan.Corecover.gmrs ~query ~views () in
      List.iter (Format.printf "%a@." Vplan.Query.pp) result.rewritings
    ]} *)

(* resource governance: budgets, typed errors *)
module Budget = Vplan_core.Budget
module Vplan_error = Vplan_core.Vplan_error

(* observability: metrics registry, span tracer, phase instrumentation,
   operator profiles, flight recorder *)
module Metrics = Vplan_obs.Metrics
module Trace = Vplan_obs.Trace
module Obs = Vplan_obs.Obs
module Profile = Vplan_obs.Profile
module Recorder = Vplan_obs.Recorder

(* conjunctive-query kernel *)
module Names = Vplan_cq.Names
module Term = Vplan_cq.Term
module Subst = Vplan_cq.Subst
module Unify = Vplan_cq.Unify
module Atom = Vplan_cq.Atom
module Query = Vplan_cq.Query
module Parser = Vplan_cq.Parser

(* query hypergraphs: GYO reduction, join trees *)
module Hypergraph = Vplan_hypergraph.Hypergraph

(* containment engine *)
module Homomorphism = Vplan_containment.Homomorphism
module Containment = Vplan_containment.Containment
module Minimize = Vplan_containment.Minimize

(* relational engine *)
module Prng = Vplan_relational.Prng
module Relation = Vplan_relational.Relation
module Database = Vplan_relational.Database
module Indexed_db = Vplan_relational.Indexed_db
module Datagen = Vplan_relational.Datagen

(* data-scale execution: interned columnar storage, hash-join engine *)
module Interned = Vplan_exec.Interned
module Exec = Vplan_exec.Exec

(* data statistics: cardinalities, distinct counts, histograms *)
module Histogram = Vplan_stats.Histogram
module Stats = Vplan_stats.Stats
module Qerror = Vplan_stats.Qerror

(* domain-based fan-out *)
module Parallel = Vplan_parallel.Parallel

(* view machinery *)
module View = Vplan_views.View
module Expansion = Vplan_views.Expansion
module View_tuple = Vplan_views.View_tuple
module Materialize = Vplan_views.Materialize
module Equiv_class = Vplan_views.Equiv_class

(* rewriting generation *)
module Tuple_core = Vplan_rewrite.Tuple_core
module Set_cover = Vplan_rewrite.Set_cover
module Corecover = Vplan_rewrite.Corecover
module Classify = Vplan_rewrite.Classify
module Lattice = Vplan_rewrite.Lattice
module Normalize = Vplan_rewrite.Normalize

(* cost models and optimizer *)
module Orderings = Vplan_cost.Orderings
module Estimate = Vplan_cost.Estimate
module M1 = Vplan_cost.M1
module M2 = Vplan_cost.M2
module M3 = Vplan_cost.M3
module Filter = Vplan_cost.Filter
module Explain = Vplan_cost.Explain
module Subplan = Vplan_cost.Subplan
module Select = Vplan_cost.Select
module Optimizer = Vplan_cost.Optimizer

(* baselines *)
module Bucket = Vplan_baselines.Bucket
module Minicon = Vplan_baselines.Minicon

module Inverse_rules = Vplan_baselines.Inverse_rules

(* unions of conjunctive queries (Section 8) *)
module Ucq = Vplan_cq.Ucq
module Ucq_containment = Vplan_containment.Ucq_containment

(* built-in comparison predicates (Section 8) *)
module Order_constraint = Vplan_builtins.Order_constraint
module Ccq = Vplan_builtins.Ccq

(* Datalog engine: semi-naive evaluation, magic sets, recursive queries
   over views *)
module Program = Vplan_datalog.Program
module Seminaive = Vplan_datalog.Seminaive
module Magic = Vplan_datalog.Magic
module Recursive_views = Vplan_datalog.Recursive_views

(* resident rewriting service: view-catalog sessions, canonical-query
   rewrite cache, concurrent request dispatch *)
module Catalog = Vplan_service.Catalog
module Rewrite_cache = Vplan_service.Rewrite_cache
module Reply_template = Vplan_service.Reply_template
module Service = Vplan_service.Service

(* durability: checksummed snapshots, write-ahead journal, crash
   recovery, fault injection *)
module Failpoint = Vplan_core.Failpoint
module Crc32 = Vplan_store.Crc32
module Codec = Vplan_store.Codec
module Record = Vplan_store.Record
module Journal = Vplan_store.Journal
module Snapshot = Vplan_store.Snapshot
module Store = Vplan_store.Store
module Persist = Vplan_service.Persist

(* concurrent serving tier: bounded MPMC queue, resident worker pool,
   line-protocol front end, TCP socket server, load generator *)
module Bounded_queue = Vplan_parallel.Bounded_queue
module Pool = Vplan_parallel.Pool
module Protocol = Vplan_service.Protocol
module Net_server = Vplan_service.Net_server
module Loadgen = Vplan_service.Loadgen

(* workloads *)
module Generator = Vplan_workload.Generator

(* high-level facade *)
module Planner = Planner
