(** Cross-candidate subplan memoization for the M2 join-order DP.

    Candidate rewritings produced by CoreCover{^ *} are drawn from the
    same pool of view tuples, so the subgoal {e subsets} their DPs
    explore overlap heavily: two candidates sharing three view atoms
    share all 2{^ 3} joint states.  A [Subplan.t] keys each DP state by a
    canonical (order-insensitive) rendering of its atom set and stores
    the state's satisfying environments together with its
    intermediate-relation cells, so the join is evaluated once per
    distinct atom set — across the candidate loop, and across requests
    when the store is owned by a resident service.

    The cached values are canonical {e as sets}: an entry's
    environments are the distinct satisfying environments of its atom
    set, which depend only on the atom set and the database, never on
    the join order that produced them — though the {e list} order may
    reflect that join order.  Every consumer (cell counts, further
    extensions, match counting) is insensitive to list order.  A store
    is valid for exactly one view image (its constant codes included);
    callers must {!clear} (or drop) it when the underlying relations
    change.

    The store is domain-safe: lookups and inserts are guarded by a
    mutex, while the join evaluation itself runs outside the lock.  Two
    domains racing on the same key may both compute it — the values are
    equal as sets, so either insert is correct. *)

type t

(** An atom set's join as the execution engine's step produces it
    ({!Vplan_exec.Exec.join}): the output layout and environments of
    extending a predecessor entry by one atom. *)
type entry = {
  slots : int array;
      (** the subset's variables as sorted interned codes (the step's
          layout, {!Vplan_exec.Exec.slots}); an environment binds
          [slots.(k)] at position [k] *)
  envs : int array list;
      (** the distinct satisfying environments of the subset's join,
          each a constant code of the view image per slot (list order
          unspecified) *)
  cells : int;  (** [size(IR)] = tuples × width, the DP's cost term *)
}

(** [create ?capacity ()] — an empty store.  When the entry count would
    exceed [capacity] (default [1 lsl 18]) the store is reset wholesale:
    a crude bound, but entries are pure caches so correctness is
    unaffected. *)
val create : ?capacity:int -> unit -> t


(** [intern t id] maps an atom's canonical rendering to a small integer
    code, stable for the store's lifetime (codes survive {!clear} and
    capacity resets).  The DP packs these codes — instead of the long
    renderings themselves — into its subset keys, so keys stay a few
    bytes per atom however verbose the atoms print. *)
val intern : t -> string -> int

(** [find t key] probes the store without computing on a miss (a hit
    bumps the hit counter; a bare probe miss counts nothing).  Used to
    steal a predecessor cached by another candidate before falling back
    to a recursive join chain. *)
val find : t -> string -> entry option

(** [find_or_add t key compute] returns the cached entry for [key], or
    runs [compute] (outside the lock) and caches its result. *)
val find_or_add : t -> string -> (unit -> entry) -> entry

type counters = {
  size : int;  (** entries currently cached *)
  hits : int;
  misses : int;
  resets : int;  (** capacity-triggered wholesale clears *)
}

val counters : t -> counters
