(** EXPLAIN-style rendering of physical plans.

    Prints a plan step by step against the interned image of the
    materialized views ({!Optimizer.image}), with the relation sizes and
    intermediate/supplementary sizes actually incurred — the output an
    engineer would use to see {e why} one rewriting beats another.
    Sizes come from the image and {!M3}'s fold of the execution engine's
    join step. *)

open Vplan_cq

(** [m2 ppf img order] — one line per join step with the running
    intermediate-relation size; the total equals {!M2.cost} under
    [M2.exact img]. *)
val m2 : Format.formatter -> Vplan_exec.Interned.t -> Atom.t list -> unit

(** [m3 ppf img plan] — like {!m2}, also showing the attributes dropped
    at each step and the generalized supplementary relation sizes; the
    total is {!M3.cost_of_plan}. *)
val m3 : Format.formatter -> Vplan_exec.Interned.t -> M3.plan -> unit
