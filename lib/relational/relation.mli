(** In-memory relations with set semantics.

    A relation is a set of tuples of constants, all of the same arity.
    This is the storage layer behind base databases and materialized view
    relations. *)

open Vplan_cq

type tuple = Term.const list

type t

(** [empty arity] is the empty relation of the given arity. *)
val empty : int -> t

val arity : t -> int

(** Number of tuples: the paper's [size(·)] for cost models M2/M3. *)
val cardinality : t -> int

(** [add tuple r] inserts a tuple; raises [Invalid_argument] on an arity
    mismatch. *)
val add : tuple -> t -> t

val of_tuples : int -> tuple list -> t
val tuples : t -> tuple list
val mem : tuple -> t -> bool
val fold : (tuple -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (tuple -> unit) -> t -> unit
val equal : t -> t -> bool
val subset : t -> t -> bool
val union : t -> t -> t
val pp : Format.formatter -> t -> unit
