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

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

(** [create ~capacity] — [capacity] must be positive. *)
val create : capacity:int -> 'a t

(** [find t key] returns the cached value and marks it most recently
    used; counts a hit or a miss. *)
val find : 'a t -> string -> 'a option

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
