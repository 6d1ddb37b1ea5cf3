(** Unions of conjunctive queries (UCQs).

    Section 8 of the paper points out that once built-in predicates or
    maximally-contained rewritings enter the picture, a rewriting is in
    general a {e union} of conjunctive queries, and asks how to compare
    the efficiency of two such unions.  This module provides the UCQ
    representation and the classical containment machinery
    (Sagiv–Yannakakis): a UCQ [U1] is contained in [U2] iff every
    disjunct of [U1] is contained in some disjunct of [U2].

    All disjuncts must share the same head predicate and arity. *)

type t = private {
  disjuncts : Query.t list;  (** at least one *)
}

(** [make disjuncts] validates head compatibility. *)
val make : Query.t list -> (t, string) result

val make_exn : Query.t list -> t

val disjuncts : t -> Query.t list
val head_arity : t -> int

(** [of_query q] is the singleton union. *)
val of_query : Query.t -> t

(** [union u1 u2] concatenates disjunct lists (heads must agree). *)
val union : t -> t -> (t, string) result

(** [size u] is the total number of body subgoals across disjuncts — the
    M1-style measure discussed in Section 8. *)
val size : t -> int

val pp : Format.formatter -> t -> unit
