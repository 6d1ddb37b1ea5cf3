(** Hash-join evaluation of conjunctive queries over interned, columnar
    relations.

    Acyclic bodies (GYO classification, {!Vplan_hypergraph.Hypergraph})
    take the Yannakakis fast path: atoms are joined in join-tree order
    after a bottom-up then top-down semi-join program that leaves every
    selection globally dangling-free in 2(n-1) passes, so intermediate
    join results are bounded by input plus output size.  Cyclic bodies
    fall back to the general path: the greedy selectivity-first
    schedule ({!Vplan_hypergraph.Hypergraph.schedule}) over the image's
    row counts and, when the head projects
    variables away, the O(n²) pairwise semi-join reduction.  Each step
    is a build/probe hash join keyed on the variables shared between
    the accumulated environments and the next atom; build sides larger
    than the radix threshold are grace-partitioned on the key hash.
    [answers] is the one query evaluator outside the tests: the Datalog
    engine, comparison queries, the certain-answer algorithms and the
    front ends run on it too.  It agrees with the backtracking oracle
    ([test/oracle/eval.ml]) on every query and in every path
    configuration (the QCheck properties in [test/test_exec.ml] and
    [test/test_hypergraph.ml]).  The join step itself is exposed
    ({!compile}, {!join}, {!count}, {!project}): M2 and M3 size
    intermediate relations with it, so costing and execution share one
    kernel.

    Instrumentation: the whole evaluation runs under an [Obs] phase
    ["hash_join"] (the pairwise reduction under ["semijoin"], the
    Yannakakis program under ["yannakakis"]), and the counters
    [vplan_join_build_rows], [vplan_join_probe_rows],
    [vplan_join_partitions_total], [vplan_acyclic_queries_total] and
    [vplan_semijoin_rows_pruned_total] account rows entering builds,
    probes issued, radix partitions created, fast-path evaluations
    taken, and rows dropped by semi-join passes — for {!answers} and
    {!rows} only, never for the exposed step.  When a [Budget] is
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
    answer relation of [q] (distinct head tuples) over the relations of
    [t].

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
    time and partition counts as a child of the profile's open operator
    (an [exec] operator wraps the whole evaluation).  [estimate],
    consulted only when profiling, maps the executed prefix of body atoms
    to an estimated join cardinality — recorded as [est_rows] on each
    select ([estimate [a]]) and join, for estimated-vs-actual comparison
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

(** [answers_ucq t u] — the union of the disjuncts' {!answers} over
    [t]: a union of conjunctive queries, such as a maximally-contained
    rewriting evaluated for its certain answers. *)
val answers_ucq : Interned.t -> Ucq.t -> Relation.t

(** [rows ~code t q] — the answer of [q] as int codes, one row per
    satisfying environment: a head variable keeps its code in [t], a
    head constant takes [code c].  The distinct rows are exactly
    {!answers}; a head that projects variables away can repeat some,
    which {!Interned.derive} drops.  This is how views are materialized
    straight into an image without boxing and re-interning their
    tuples. *)
val rows : code:(Term.const -> int) -> Interned.t -> Query.t -> Interned.rel

(** {2 The join step}

    The build/probe step {!answers} and {!rows} run on, exposed for
    costing ({!Vplan_cost.M2.exact}, {!Vplan_cost.M3}) so that what a
    plan costs and what it returns come from one kernel.

    An environment is a flat [int array] of constant codes over a
    {e layout}: the strictly increasing variable codes it binds, code
    [layout.(k)] held at position [k].  The single empty environment
    [[||]] over the empty layout [[||]] starts every join. *)

type step

(** [compile t ~var layout a] — atom [a] compiled against the image [t]
    for environments over [layout]; [var] gives each variable its code.
    Variables of [a] in [layout] become probe keys, the others are bound
    by the step.  A missing relation, one of another arity, or a
    constant [t] lacks makes a step that matches nothing. *)
val compile : Interned.t -> var:(string -> int) -> int array -> Atom.t -> step

(** The layout of the step's output: [layout] merged with [a]'s
    variable codes. *)
val slots : step -> int array

(** [join st envs] — every extension of an environment of [envs] by a
    matching row of the atom, over {!slots}: one pass selects the rows
    passing the atom's constants and repeated variables, one hash build
    over them (radix-partitioned past {!default_radix_threshold}), one
    probe per environment.  Distinct environments give distinct
    results.  Charges no budget and moves no counter. *)
val join : step -> int array list -> int array list

(** [count st envs] — [List.length (join st envs)], from per-key match
    counts, without building the result. *)
val count : step -> int array list -> int

(** [project layout onto envs] — [envs] over [layout] restricted to
    [onto], a strictly increasing subset of [layout], each distinct
    restriction once: M3's attribute dropping. *)
val project : int array -> int array -> int array list -> int array list
