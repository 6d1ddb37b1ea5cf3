(** Atoms (subgoals): a predicate symbol applied to a list of terms. *)

type t = {
  pred : string;  (** predicate (relation or view) name *)
  args : Term.t list;
}

val make : string -> Term.t list -> t
val arity : t -> int
val compare : t -> t -> int
val equal : t -> t -> bool

(** [vars a] lists the variable names of [a] in order of first occurrence,
    without duplicates. *)
val vars : t -> string list

val var_set : t -> Names.Sset.t

(** [terms a] is the set of distinct argument terms of [a]. *)
val terms : t -> Term.Set.t

val constants : t -> Term.const list

(** [apply s a] applies substitution [s] to every argument. *)
val apply : Subst.t -> t -> t

(** [unify s pattern target] directionally matches [pattern] against
    [target] argument by argument (see {!Subst.unify_term}); fails when the
    predicates or arities differ. *)
val unify : Subst.t -> t -> t -> Subst.t option

val pp : Format.formatter -> t -> unit

(** [pp]'s output, without a formatter. *)
val to_string : t -> string

(** [add_to_buffer b a] appends [to_string a] to [b]. *)
val add_to_buffer : Buffer.t -> t -> unit

module Set : Set.S with type elt = t
