(** Interned, columnar relation storage for the hash-join engine.

    Constants are interned to dense integer codes once per load; each
    relation's tuples are stored in a single flat row-major int array,
    each tuple once, with no boxed copy.  An image is immutable once
    built, by {!of_database} or {!derive}. *)

open Vplan_cq
open Vplan_relational

type rel = {
  arity : int;
  rows : int;
  data : int array;  (** [data.(row * arity + col)] = interned constant *)
}

type t

val of_database : Database.t -> t

(** [derive base builds] — the image of relations computed over [base]
    (materialized views over an interned base): each [(name, build)]
    contributes [build code], a relation whose cells are codes of the
    result's dictionary.  That dictionary is [base]'s, unchanged, extended
    with every constant [code] is asked for that [base] lacks (a view
    head's constant).  A build may repeat rows; the image keeps each
    once, by hashing the int rows.  A later build of an existing name
    replaces it. *)
val derive : t -> (string * ((Term.const -> int) -> rel)) list -> t

(** [database t] decodes the relations of [t], on each call: for the
    inverse-rules certain answers, which rebuild a boxed base from the
    view relations, and for printing; never for a planning request. *)
val database : t -> Database.t

(** [const_id t c] — the dense code of [c], or [None] if [c] does not
    occur anywhere in the database (no tuple can match it). *)
val const_id : t -> Term.const -> int option

(** [const t id] — the constant behind a code. *)
val const : t -> int -> Term.const

(** [find t pred] — the stored relation named [pred]. *)
val find : t -> string -> rel option

(** [cardinality t pred] — the row count of [pred], 0 when absent. *)
val cardinality : t -> string -> int

(** [get r row col] — per-column accessor into the flat array. *)
val get : rel -> int -> int -> int

(** [tuple_of_row t r row] decodes a stored row back to constants. *)
val tuple_of_row : t -> rel -> int -> Relation.tuple
