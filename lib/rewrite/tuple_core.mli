(** Tuple-cores (Definition 4.1): the query subgoals covered by a view
    tuple.

    For a minimal query [Q] and a view tuple [t{_v}], the tuple-core is the
    {e maximal} collection [G] of [Q]'s subgoals admitting a containment
    mapping [φ] from [G] into the expansion [t{_v}{^exp}] such that:

    + [φ] is one-to-one on arguments and the identity on arguments of [G]
      that appear in [t{_v}];
    + every distinguished variable of [Q] in [G] maps to a distinguished
      argument of the expansion (hence, by (1), to itself);
    + if a nondistinguished variable [X] of [G] maps to an existential
      variable of the expansion, then [G] contains {e all} subgoals of [Q]
      that use [X].

    Lemma 4.2: the tuple-core of a view tuple for a minimal query is
    unique.

    The core is computed over integer codes.  A variable that is
    distinguished or an argument of the tuple maps to itself; every other
    variable must map to an existential of the expansion, so by (3) a
    core is a union of {e free-variable components}: subgoals linked by
    shared variables of the second kind.  Each component is searched on
    its own, then the union of the valid ones jointly; for a minimal
    query that union is the core.  When it is not valid (non-minimal
    input only), the largest valid union of components is returned. *)

open Vplan_cq
open Vplan_views

type t = {
  subgoals : Atom.t list;  (** covered subgoals, in query-body order *)
  mask : int;  (** same set as a bitmask over body positions *)
}

val is_empty : t -> bool
val pp : Format.formatter -> t -> unit

(** [same_cover c1 c2] compares cores by covered subgoal set only. *)
val same_cover : t -> t -> bool

(** [cores code tvs] computes the tuple-core of every view tuple in
    [tvs], in order, for the (minimal) query [code] was compiled from;
    [tvs] come from {!View_tuple.compute_coded} on that query, whose
    codes the search reads directly.  Raises
    [Vplan_error.Error (Width_limit _)] when [tvs] is not empty and the
    query body exceeds 62 subgoals.

    Each tuple's expansion is written into scratch arrays reused across
    the tuples, so a tuple allocates only its returned [t] and the list
    cells carrying it: 23 words per tuple on an 8-subgoal star query
    over a 40-view star catalog, scratch and fan-out included, where a
    fresh scratch per tuple costs 391 (a test holds it under 150).

    [domains] (default 1) fans the tuples out with
    {!Vplan_parallel.Parallel.map_init}, one scratch per chunk; the
    result is independent of the worker count.  A [?budget] is
    ticked at every search node. *)
val cores :
  ?budget:Vplan_core.Budget.t ->
  ?domains:int ->
  View_tuple.Query_code.t ->
  View_tuple.coded list ->
  t list
