(** Operator-level execution profiles, recorded as {!Trace.span}s: one
    span per operator, named by its label ([select r(X,Y)], [join
    s(Y,Z)], ...), under a root [query] span, with its runtime facts as
    annotations — [rows_in], [build_rows] (build side of a hash join),
    [rows_out], [est_rows] and [partitions] (grace/radix partition
    count).  [explain analyze] renders them with {!pp_tree}; the flight
    recorder keeps them, and {!Trace.chrome_json} exports them, like any
    other span list.

    The same zero-disabled-cost discipline as {!Trace} applies, enforced
    structurally rather than by a global flag: every recording entry
    point takes an [option] — the engine threads [?profile] through its
    call graph and each instrumentation site is a single pattern match
    when profiling is off.  A profile belongs to one execution on one
    domain, so unlike a trace session it needs no cross-domain
    registration: operators of one execution run sequentially.

    Estimated rows come from a caller-supplied callback (the execution
    engine knows the operator order, the cost layer knows the
    statistics); {!qerror} folds an (estimate, actual) pair into the
    standard q-error [max (est/act, act/est)] with both sides floored at
    one tuple. *)

(** A profile being collected. *)
type t

(** An open operator. *)
type op

(** [create ~name ()] starts a profile whose root is a [query] operator
    called [name]. *)
val create : ?name:string -> unit -> t

(** [step p ~op ~name ~detail f] — with [Some p], opens an operator
    labelled [op] plus [detail] (or, without one, [name]) under the
    innermost open operator, runs [f (Some o)] timing it, and closes it
    (also on exceptions).  With [None], runs [f None]: profiling off
    costs one match. *)
val step :
  t option ->
  op:string ->
  ?name:string ->
  ?detail:string ->
  (op option -> 'a) ->
  'a

(** [set o key v] records the annotation [key = v] on an open operator,
    replacing an earlier value of [key]; a no-op on [None], so
    instrumentation sites stay branch-free when profiling is off. *)
val set : op option -> string -> float -> unit

(** [finish p] closes the root (recording total duration) and returns
    the operators' spans in execution preorder, root first. *)
val finish : t -> Trace.span list

(** [qerror ~est ~actual] — the q-error [max (est/act, act/est)] with
    both sides floored at 1.0 (an empty operator estimated empty is
    perfect, not undefined).  [nan] when [est] is [nan]. *)
val qerror : est:float -> actual:int -> float

(** Largest q-error over every operator carrying both [est_rows] and
    [rows_out]; [nan] when none does. *)
val max_qerror : Trace.span list -> float

(** [(relation, q-error)] of every selection carrying an estimate, in
    execution order: per-relation estimate accuracy. *)
val selection_qerrors : Trace.span list -> (string * float) list

(** Render the profile, one operator per line: rows in/out, build rows,
    estimated rows with per-operator q-error, partition count,
    duration. *)
val pp_tree : Format.formatter -> Trace.span list -> unit
