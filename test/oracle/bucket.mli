(** The bucket algorithm (Levy–Rajaraman–Ordille 1996) as a baseline.

    For each query subgoal, the bucket holds the view atoms that can cover
    it (a view subgoal unifies with the query subgoal, mapping
    distinguished query variables to distinguished view positions).
    Candidate rewritings are elements of the cartesian product of the
    buckets; each is kept if its expansion is contained in (resp.
    equivalent to) the query.

    The algorithm over-generates candidates — its classic weakness and the
    motivation for MiniCon — which the comparison bench quantifies.  It
    is the reference CoreCover's existence test is checked against, and
    the comparison example and bench run it. *)

open Vplan

type result = {
  buckets : Atom.t list list;  (** one bucket per query subgoal *)
  candidates_checked : int;  (** cartesian-product size actually tested *)
  rewritings : Query.t list;
}

(** [run ~mode ~query ~views] with [mode] selecting the containment test:
    [`Equivalent] for equivalent rewritings (closed world), [`Contained]
    for contained rewritings (open world).  [max_candidates] caps the
    cartesian product (default 100_000). *)
val run :
  ?max_candidates:int ->
  mode:[ `Equivalent | `Contained ] ->
  query:Query.t ->
  views:View.t list ->
  unit ->
  result
