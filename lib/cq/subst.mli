(** Substitutions: finite maps from variable names to terms.

    Substitutions are the workhorse of homomorphism search, view expansion
    and variable renaming.  Application is non-recursive: a substitution is
    applied simultaneously to all variables (there is no chasing of
    bindings), which is what containment mappings require. *)

type t

val empty : t

(** [singleton x t] binds variable [x] to term [t]. *)
val singleton : string -> Term.t -> t

val of_list : (string * Term.t) list -> t
val bindings : t -> (string * Term.t) list
val cardinal : t -> int

(** [find x s] is the binding of [x] in [s], if any. *)
val find : string -> t -> Term.t option

val mem : string -> t -> bool

(** [bind x t s] adds the binding [x -> t].  Raises [Invalid_argument] when
    [x] is already bound to a different term; rebinding to an equal term is
    a no-op. *)
val bind : string -> Term.t -> t -> t

(** [extend x t s] is [Some (bind x t s)] when consistent, [None] when [x]
    is already bound to a different term. *)
val extend : string -> Term.t -> t -> t option

(** [apply_term s t] replaces a variable by its binding; unbound variables
    and constants are returned unchanged. *)
val apply_term : t -> Term.t -> Term.t

(** [unify_term s pattern target] directionally matches [pattern] against
    [target] under [s]: a pattern variable must map to [target] (extending
    [s] if unbound) and a pattern constant must equal [target].  The target
    term is never instantiated. *)
val unify_term : t -> Term.t -> Term.t -> t option

(** [is_injective_on s vars] holds when the bindings of the variables in
    [vars] are pairwise distinct terms. *)
val is_injective_on : t -> string list -> bool

val equal : t -> t -> bool
