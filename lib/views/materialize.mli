(** Materializing views over a base database (the closed-world model).

    The resulting database is keyed by view names; rewritings are evaluated
    directly against it. *)

open Vplan_cq
open Vplan_relational

(** [image base vs] evaluates every view definition on [base] into one
    interned image ({!Vplan_exec.Interned.derive}): the view relations as
    int rows over [base]'s dictionary, and their boxed database decoded
    from the same rows. *)
val image : Database.t -> View.t list -> Vplan_exec.Interned.t

(** [views base vs] — the boxed database of {!image}. *)
val views : Database.t -> View.t list -> Database.t

(** [answers_via_rewriting view_db p] evaluates a rewriting [p] over the
    materialized view database. *)
val answers_via_rewriting : Database.t -> Query.t -> Relation.t
