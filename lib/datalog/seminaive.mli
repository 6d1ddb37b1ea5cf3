(** Bottom-up evaluation of Datalog programs.

    {!evaluate} is the standard semi-naive fixpoint: each round joins
    every rule once per IDB body position against only the {e delta}
    facts of the previous round, each join one {!Vplan_exec.Exec.rows}.
    The EDB is interned once; the IDB and delta relations are int rows
    carried across rounds, so a round costs its joins and its new facts,
    not a re-interning of everything derived so far.  It computes the
    minimal model restricted to the given EDB; the naive fixpoint it is
    tested against lives with the test oracles. *)

open Vplan_cq
open Vplan_relational

(** [evaluate program edb] returns the fixpoint database (EDB facts plus
    all derived IDB facts).  [max_rounds] guards against runaway growth
    (default 10_000; raises [Vplan_error.Error (Step_limit _)] when
    exceeded).  A [?budget] is additionally ticked once per round, so a
    shared deadline or cancellation stops the fixpoint between rounds. *)
val evaluate :
  ?budget:Vplan_core.Budget.t -> ?max_rounds:int -> Program.t -> Database.t -> Database.t

(** [query program edb q] — evaluate the program and then the conjunctive
    query [q] over the fixpoint. *)
val query :
  ?budget:Vplan_core.Budget.t ->
  ?max_rounds:int -> Program.t -> Database.t -> Query.t -> Relation.t
