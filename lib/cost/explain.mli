(** EXPLAIN-style rendering of physical plans.

    Prints a plan step by step against a concrete (view) database, with
    the relation sizes and intermediate/supplementary sizes actually
    incurred — the output an engineer would use to see {e why} one
    rewriting beats another. *)

open Vplan_cq
open Vplan_relational

(** [m2 ppf img order] — one line per join step with the running
    intermediate-relation size, over the views of the image [img]
    ({!Optimizer.image}); the total is {!M2.cost} under [M2.exact img]. *)
val m2 : Format.formatter -> Vplan_exec.Interned.t -> Atom.t list -> unit

(** [m3 ppf db plan] — like {!m2}, also showing the attributes dropped at
    each step and the generalized supplementary relation sizes. *)
val m3 : Format.formatter -> Database.t -> M3.plan -> unit
