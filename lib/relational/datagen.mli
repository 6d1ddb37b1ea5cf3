(** Synthetic database generation for tests, examples and cost-model
    benchmarks.

    The paper evaluates rewriting {e generation}, not execution, so no
    datasets are published; cost models M2/M3 nevertheless need concrete
    instances.  These generators produce seeded, reproducible instances
    over a given schema. *)

open Vplan_cq

type spec = {
  predicate : string;
  arity : int;
  tuples : int;  (** number of tuples to draw (duplicates collapse) *)
  domain : int;  (** values are drawn from [Int 0 .. Int (domain-1)] *)
}

(** [random rng specs] draws each relation independently. *)
val random : Prng.t -> spec list -> Database.t

(** [for_query rng ~tuples ~domain q] builds a random instance covering
    every body predicate of [q], each with the same size and domain. *)
val for_query : Prng.t -> tuples:int -> domain:int -> Query.t -> Database.t

(** [for_query_nonempty rng ~tuples ~domain q] additionally plants enough
    correlated facts that [q] has at least one answer: the query body is
    instantiated with random constants and inserted as facts (the frozen
    body acts as a witness). *)
val for_query_nonempty : Prng.t -> tuples:int -> domain:int -> Query.t -> Database.t

(** [for_query_skewed rng ~tuples ~domain q] — skewed variant of
    {!for_query}. *)
val for_query_skewed : Prng.t -> tuples:int -> domain:int -> Query.t -> Database.t

(** Per-column value distribution for {!random_dist}. *)
type distribution =
  | Uniform
  | Zipf of float  (** skew parameter theta in [0, 1); 0 is uniform *)

(** [zipf rng ~domain ~theta] returns a sampler drawing from
    [0 .. domain-1] under a bounded Zipf distribution (YCSB-style
    inverse CDF).  Deterministic given the generator state. *)
val zipf : Prng.t -> domain:int -> theta:float -> unit -> int

(** [random_dist rng specs] draws each relation with an explicit
    per-column distribution list (missing entries default to
    [Uniform]). *)
val random_dist : Prng.t -> (spec * distribution list) list -> Database.t
