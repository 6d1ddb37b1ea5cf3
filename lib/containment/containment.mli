(** Chandra–Merlin query containment, equivalence and isomorphism.

    [Q1 ⊑ Q2] holds iff there is a containment mapping from [Q2] to [Q1]:
    a homomorphism on [Q2]'s variables that sends [Q2]'s head to [Q1]'s
    head and every body atom of [Q2] to a body atom of [Q1]. *)

open Vplan_cq

(** [mapping ~from_q ~to_q] finds a containment mapping from [from_q] to
    [to_q] (witnessing [to_q ⊑ from_q]), or [None]. *)
val mapping : from_q:Query.t -> to_q:Query.t -> Subst.t option

(** [mappings ~from_q ~to_q] enumerates all containment mappings. *)
val mappings : from_q:Query.t -> to_q:Query.t -> Subst.t list

(** [is_contained q1 q2] decides [q1 ⊑ q2] ([q1]'s answers are a subset of
    [q2]'s on every database).  A [?budget] bounds the underlying
    homomorphism search; on exhaustion [Vplan_error.Error] is raised.
    [?fastpath:false] turns off the acyclic fast path
    ({!Homomorphism.find}); the answer is identical either way. *)
val is_contained :
  ?budget:Vplan_core.Budget.t -> ?fastpath:bool -> Query.t -> Query.t -> bool

(** [equivalent q1 q2] decides [q1 ≡ q2]. *)
val equivalent :
  ?budget:Vplan_core.Budget.t -> ?fastpath:bool -> Query.t -> Query.t -> bool

(** [properly_contained q1 q2] decides [q1 ⊑ q2 ∧ q2 ⋢ q1]. *)
val properly_contained : ?budget:Vplan_core.Budget.t -> Query.t -> Query.t -> bool

(** [isomorphic q1 q2] decides whether the queries are identical up to a
    renaming of variables and reordering/deduplication of body atoms —
    strictly stronger than equivalence.  Used to deduplicate generated
    rewritings ("we assume two rewritings are the same if the only
    difference between them is variable renamings"). *)
val isomorphic : Query.t -> Query.t -> bool
