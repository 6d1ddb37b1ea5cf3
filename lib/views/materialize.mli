(** Materializing views over a base database (the closed-world model).

    The result is keyed by view names; rewritings are evaluated directly
    against it, by the execution engine ({!Vplan_exec.Exec.answers})
    over {!image}. *)

open Vplan_relational

(** [image base vs] evaluates every view definition on [base] into one
    interned image ({!Vplan_exec.Interned.derive}): the view relations as
    int rows over [base]'s dictionary, each row once. *)
val image : Database.t -> View.t list -> Vplan_exec.Interned.t

(** [views base vs] — {!image} decoded ({!Vplan_exec.Interned.database}),
    for the inverse-rules certain answers, which read the view relations
    boxed. *)
val views : Database.t -> View.t list -> Database.t
