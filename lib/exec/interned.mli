(** Interned, columnar relation storage for the hash-join engine.

    Constants are interned to dense integer codes once per load; each
    relation's tuples are stored in a single flat row-major int array,
    each tuple once, with no boxed copy.  An image is immutable once
    built, by {!of_database}, {!derive} or {!with_relations}. *)

open Vplan_cq
open Vplan_relational

type rel = {
  arity : int;
  rows : int;
  data : int array;
      (** [data.(row * arity + col)] = interned constant; cells past
          [rows * arity] are never read, so a growing buffer can be
          shared by successive [rel]s *)
}

type t

(** [of_database ?consts db] — the image of [db], its dictionary also
    holding [consts] (constants a computation over the image will
    produce, such as a Datalog rule's head constants). *)
val of_database : ?consts:Term.const list -> Database.t -> t

(** [with_relations t rels] — [t] with each [(name, r)] of [rels] added,
    replacing a relation of the same name.  The dictionary is [t]'s, so
    the cells of each [r] must be codes of [t]; rows are kept as given,
    so they should be distinct. *)
val with_relations : t -> (string * rel) list -> t

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
