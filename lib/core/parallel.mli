(** A minimal Domain-based fork/join pool (OCaml 5 stdlib, no dependencies).

    The pool is {e work-stealing-free}: the input is split into one
    contiguous chunk per worker up front and results are reassembled in
    chunk order.  Consequently [map ~domains f xs = List.map f xs] for any
    pure [f] and any worker count — parallelism never changes results,
    only wall-clock time.  This is the determinism contract CoreCover
    relies on when fanning per-view and per-tuple work out.

    [map] is also an {e exception barrier}: every spawned domain is
    joined before the call returns or raises, whichever chunk failed —
    no domain ever leaks, so repeated failing calls cannot exhaust the
    runtime's domain limit. *)

(** [map ~domains f xs] applies [f] to every element of [xs] using up to
    [domains] domains (including the calling one) and returns the results
    in input order.  [domains <= 1] (the default) runs sequentially with
    no domain spawned.

    Error handling is deterministic: if any chunk raises, all domains
    are first joined, then the exception of the {e lowest-numbered}
    failing chunk is re-raised with its original backtrace — the same
    exception a sequential [List.map f xs] would surface first.  When a
    [?budget] is supplied, a failing chunk also {!Budget.cancel}s it so
    sibling chunks that tick the budget stop within one loop iteration
    instead of running to completion; such induced [Cancelled] failures
    are never chosen over the root cause.  [f] must not rely on shared
    mutable state unless that state is itself domain-safe. *)
val map :
  ?budget:Vplan_core.Budget.t -> ?domains:int -> ('a -> 'b) -> 'a list -> 'b list

(** [map_init ~init f xs] is [map (f (init ())) xs], except that [init]
    runs once per chunk, in the domain that maps the chunk: each chunk
    gets its own ['s], such as a scratch buffer [f] may mutate. *)
val map_init :
  ?budget:Vplan_core.Budget.t ->
  ?domains:int ->
  init:(unit -> 's) ->
  ('s -> 'a -> 'b) ->
  'a list ->
  'b list
