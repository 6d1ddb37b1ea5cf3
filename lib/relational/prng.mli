(** A small deterministic pseudo-random number generator (splitmix64).

    All data and workload generation in this repository is driven by this
    PRNG so that every experiment is reproducible from its seed, without
    depending on the global [Random] state. *)

type t

val create : int -> t

(** [int t bound] draws uniformly from [0 .. bound-1]. [bound] must be
    positive. *)
val int : t -> int -> int

(** [range t lo hi] draws uniformly from [lo .. hi] inclusive. *)
val range : t -> int -> int -> int

(** [float t] draws uniformly from [0, 1). *)
val float : t -> float

(** [pick t l] draws a uniformly random element; raises [Invalid_argument]
    on an empty list. *)
val pick : t -> 'a list -> 'a

(** [shuffle t l] returns a uniformly random permutation. *)
val shuffle : t -> 'a list -> 'a list
