(** Rewriting lines, pre-rendered with variable holes.

    A template holds one line per cover of a CoreCover result, each
    reading exactly as [Format.printf "%a@." Query.pp] prints the
    rewriting [head :- atoms of the cover], except that every occurrence
    of a variable of [vars] is a hole.  A hole's slot is that variable's
    index in [vars] (for a cached result, [Query.vars] of the canonical
    query), so filling the holes with another query's names for the same
    slots renames the rewritings without building a rewriting or
    touching a formatter.  Constants and variables outside [vars] stay
    literal.

    The head and each atom are rendered once, however many lines share
    them: the template is a table of rendered fragments plus, per line,
    the fragment indices of its body. *)

open Vplan_cq

type t

(** [make ~vars ~head ~atoms covers] renders one line per cover, in
    order: [head] and the atoms [atoms.(i)] for each index [i] of the
    cover, in cover order.  Only atoms some cover uses are rendered. *)
val make : vars:string array -> head:Atom.t -> atoms:Atom.t array -> int list list -> t

(** [render buf t names] appends the lines, each ending in a newline,
    with slot [i] filled by [names.(i)].  [names] must cover every slot
    of [vars].

    Each fragment is filled once, into a scratch that belongs to the
    calling domain and is kept between calls, then copied from there
    into [buf] per use.  So a render allocates nothing the size of its
    reply: the scratch keeps what it grew to, up to 1 MiB of filled
    fragments, and only a larger fill leaves a fresh 4 KiB scratch
    behind.  Renders on different domains never share a scratch. *)
val render : Buffer.t -> t -> string array -> unit
