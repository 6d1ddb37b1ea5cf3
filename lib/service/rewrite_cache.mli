(** A bounded LRU cache with hit/miss/eviction counters.

    String-keyed (the keys are canonical query renderings,
    {!Vplan_rewrite.Normalize.cache_key}) and generic in the stored
    value.  Recency is updated on {!find}; {!add} evicts the least
    recently used entry once the capacity is exceeded.  All operations
    but {!retain} are O(1).

    The cache is {e not} synchronized: callers sharing one cache across
    domains must hold their own lock around every operation
    ({!Vplan_service.Service} does). *)

type 'a t

(** The process-wide counters a cache reports into, beside its own
    {!counters}: [<prefix>_hits_total], [<prefix>_misses_total] and
    [<prefix>_evictions_total] in {!Vplan_obs.Metrics}. *)
type family

(** [family prefix] registers (or finds) the three counters. *)
val family : string -> family

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

(** [create ~capacity ()] — [capacity] must be positive.  [family]
    defaults to the rewrite cache's, [vplan_cache]. *)
val create : ?family:family -> capacity:int -> unit -> 'a t

(** [find t key] returns the cached value and marks it most recently
    used; counts a hit or a miss.  A value [accept] (default: any)
    rejects is a miss: it is not returned and keeps its recency. *)
val find : ?accept:('a -> bool) -> 'a t -> string -> 'a option

(** [add t key v] inserts (or replaces, without an eviction count) the
    binding and marks it most recently used, evicting the least recently
    used entry when the capacity is exceeded. *)
val add : 'a t -> string -> 'a -> unit

(** [retain t keep] drops every entry whose key and value [keep]
    rejects, in one pass over the entries.  The survivors keep their
    recency order; a drop is not an eviction, so only [size] changes. *)
val retain : 'a t -> (string -> 'a -> bool) -> unit

(** Drop every entry.  Counters other than [size] are preserved: they
    describe the cache's lifetime, not its current contents. *)
val clear : 'a t -> unit

val counters : 'a t -> counters
