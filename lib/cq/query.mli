(** Safe conjunctive queries: [h(X̄) :- g1(X̄1), ..., gk(X̄k)].

    A query is {e safe} when every head variable also occurs in the body.
    Variables occurring in the head are {e distinguished}; the remaining
    body variables are {e existential} (nondistinguished). *)

type t = private {
  head : Atom.t;
  body : Atom.t list;
}

(** [make head body] builds a query, validating safety.  The body order is
    preserved (it matters for physical plans). *)
val make : Atom.t -> Atom.t list -> (t, string) result

(** [make_exn head body] is [make], raising [Invalid_argument] on an unsafe
    query. *)
val make_exn : Atom.t -> Atom.t list -> t

(** [with_body q body] replaces the body, re-checking safety. *)
val with_body : t -> Atom.t list -> (t, string) result

val equal : t -> t -> bool
val compare : t -> t -> int

(** Distinguished variables, in head order without duplicates. *)
val head_vars : t -> string list

(** All variables, head first then body, in order of first occurrence. *)
val vars : t -> string list

val var_set : t -> Names.Sset.t
val existential_vars : t -> string list
val is_distinguished : t -> string -> bool

(** Constants appearing anywhere in the query. *)
val constants : t -> Term.const list

(** Predicates of the body, without duplicates, in order of occurrence. *)
val body_preds : t -> string list

(** [apply s q] applies a substitution to head and body.  The result is not
    re-checked for safety: a containment mapping applied to a safe query
    yields a safe query. *)
val apply : Subst.t -> t -> t

(** [rename_apart ~avoid q] renames every variable of [q] to a fresh name
    avoiding [avoid] (and the query's own names are reused when they do not
    collide).  Returns the renamed query and the substitution used. *)
val rename_apart : avoid:Names.Sset.t -> t -> t * Subst.t

(** [dedup_body q] removes duplicate body atoms, keeping first occurrences. *)
val dedup_body : t -> t

(** [canonical q] renames variables to ["V0"], ["V1"], ... in order of first
    occurrence (head first) and deduplicates the body.  Two queries that
    differ only by a variable renaming that preserves body order have equal
    canonical forms.  For order-insensitive comparison see
    {!Vplan_containment.Containment.isomorphic}. *)
val canonical : t -> t

val pp : Format.formatter -> t -> unit

(** [pp]'s output, without a formatter. *)
val to_string : t -> string
