(** Rewriting lines, pre-rendered with variable holes.

    A template holds a list of rewritings rendered exactly as
    [Format.printf "%a@." Query.pp] prints each one, except that every
    occurrence of a variable of [vars] is a hole.  A hole's slot is
    that variable's index in [vars] (for a cached result, [Query.vars]
    of the canonical query), so filling the holes with another query's
    names for the same slots renames the rewritings without building a
    [Query.t] or touching a formatter.  Constants and variables outside
    [vars] stay literal. *)

open Vplan_cq

type t

(** [make ~vars rewritings] renders [rewritings] once. *)
val make : vars:string array -> Query.t list -> t

(** [render buf t names] appends the rewritings, one per line, with
    slot [i] filled by [names.(i)].  [names] must cover every slot of
    [vars]. *)
val render : Buffer.t -> t -> string array -> unit
