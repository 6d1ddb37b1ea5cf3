(** Hash-join evaluation of conjunctive queries over interned, columnar
    relations.

    Acyclic bodies (GYO classification, {!Vplan_hypergraph.Hypergraph})
    take the Yannakakis fast path: atoms are joined in join-tree order
    after a bottom-up then top-down semi-join program that leaves every
    selection globally dangling-free in 2(n-1) passes, so intermediate
    join results are bounded by input plus output size.  Cyclic bodies
    fall back to the general path with zero behavior change: the
    backtracking evaluator's static schedule
    ({!Vplan_relational.Eval.schedule}) and, when the head projects
    variables away, the O(n²) pairwise semi-join reduction.  Each step
    is a build/probe hash join keyed on the variables shared between
    the accumulated environments and the next atom; build sides larger
    than the radix threshold are grace-partitioned on the key hash.
    [answers] agrees with [Eval.answers] on every query and in every
    path configuration (the QCheck oracle properties in
    [test/test_exec.ml] and [test/test_hypergraph.ml]).

    Instrumentation: the whole evaluation runs under an [Obs] phase
    ["hash_join"] (the pairwise reduction under ["semijoin"], the
    Yannakakis program under ["yannakakis"]), and the counters
    [vplan_join_build_rows], [vplan_join_probe_rows],
    [vplan_join_partitions_total], [vplan_acyclic_queries_total] and
    [vplan_semijoin_rows_pruned_total] account rows entering builds,
    probes issued, radix partitions created, fast-path evaluations
    taken, and rows dropped by semi-join passes.  When a [Budget] is
    supplied, one step is charged per probe and per produced row, so a
    step limit truncates evaluation mid-probe with the usual
    [Vplan_error]. *)

open Vplan_cq
open Vplan_relational

(** Build sides above this row count are radix-partitioned (default
    65536). *)
val default_radix_threshold : int

(** Number of partitions per radix split. *)
val radix_partitions : int

(** [answers ?budget ?semijoin ?acyclic ?radix_threshold t q] — the
    answer relation of [q] (distinct head tuples), equal to
    [Eval.answers (Interned.database t) q].

    [acyclic] controls the Yannakakis fast path: [Some true] forces it
    whenever the body is acyclic with ≥ 2 atoms, [Some false] forces
    the general path (no classification is even attempted), and the
    default takes it exactly where the pairwise reduction would run —
    acyclic and projection-heavy.  [semijoin] forces the general
    path's pairwise reduction on or off; by default it runs iff the
    head has fewer distinct variables than the body.  The two paths
    compute the same relation in every combination.

    [profile] attaches an operator profile: every selection, semi-join
    program, and join step records rows in/out, build-side size, wall
    time and partition counts as a child of the profile's open node (an
    [exec] node wraps the whole evaluation).  [estimate], consulted
    only when profiling, maps the executed prefix of body atoms to an
    estimated join cardinality — recorded as [est_rows] on each select
    ([estimate [a]]) and join node, for estimated-vs-actual comparison
    ([explain analyze]).  Without [profile] (the default), the engine
    runs the exact uninstrumented code paths. *)
val answers :
  ?budget:Vplan_core.Budget.t ->
  ?semijoin:bool ->
  ?acyclic:bool ->
  ?radix_threshold:int ->
  ?profile:Vplan_obs.Profile.t ->
  ?estimate:(Atom.t list -> float) ->
  Interned.t ->
  Query.t ->
  Relation.t

(** [rows ~code t q] — the answer of [q] as int codes, one row per
    satisfying environment: a head variable keeps its code in [t], a
    head constant takes [code c].  The distinct rows are exactly
    {!answers}; a head that projects variables away can repeat some,
    which {!Interned.derive} drops.  This is how views are materialized
    straight into an image without boxing and re-interning their tuples.
    [profile]/[estimate] as for {!answers}. *)
val rows :
  ?profile:Vplan_obs.Profile.t ->
  ?estimate:(Atom.t list -> float) ->
  code:(Term.const -> int) ->
  Interned.t ->
  Query.t ->
  Interned.rel
