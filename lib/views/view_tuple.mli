(** View tuples [T(Q,V)] (Section 3.3).

    A view tuple is an atom over a view predicate whose arguments are
    variables and constants of the query, obtained by applying the view
    definitions to the canonical database of [Q] and thawing the result.
    Lemma 3.2: every rewriting can be transformed into one, at least as
    contained, that uses view tuples only — so view tuples are the
    building blocks of all the search spaces in the paper.

    Applying a view to the canonical database is finding the
    homomorphisms from the view body into the query body, so view tuples
    are computed that way: each view body is compiled once into a
    {!Pattern.t}, the query once per call into a {!Query_code.t}, and a
    backtracking matcher sends the view's atoms to the query's
    same-predicate subgoals over integer codes. *)

open Vplan_cq

type t = {
  atom : Atom.t;  (** the view tuple itself, e.g. [v1(M, a, C)] *)
  view : View.t;  (** the defining view *)
}

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

(** A compiled view: one int array.  The view's variables are coded
    [0 .. num_vars - 1] by first occurrence, head first, so
    [0 .. num_head_vars - 1] are the head variables; its constant
    occurrences, numbered [k = 0, 1, ...] in the same order, are coded
    [num_vars + k].  The constants and predicate names stay in
    the view.  Immutable, so one value serves any number of calls and
    domains. *)
module Pattern : sig
  type t

  (** [length p] bounds every count [p] holds: variables, atoms,
      arguments. *)
  val length : t -> int

  val num_vars : t -> int
  val num_head_vars : t -> int
  val num_atoms : t -> int

  (** [head_position p v] is head variable [v]'s first head position. *)
  val head_position : t -> int -> int

  (** The body atoms are read by offset: the first is at [body_start p],
      the one after the atom at [o] at [next_atom p o]. *)
  val body_start : t -> int

  val next_atom : t -> int -> int
  val atom_arity : t -> int -> int

  (** [atom_arg p o i] is the code of argument [i] of the atom at [o]. *)
  val atom_arg : t -> int -> int -> int
end

(** A compiled query.  Its terms are coded as its variables
    [0 .. num_vars - 1] in {!Vplan_cq.Query.vars} order, then its
    constants in {!Vplan_cq.Query.constants} order; tuple-cores
    ({!Vplan_rewrite.Tuple_core}) search over the same codes. *)
module Query_code : sig
  type t = private {
    body : Atom.t array;
    args : int array array;  (** per subgoal, its argument codes *)
    head : int array;
    num_vars : int;
    num_terms : int;
    terms : Term.t array;  (** code -> term *)
    rank : int array;
        (** code -> position of the term's canonical-database spelling
            under {!Vplan_cq.Term.compare_const} *)
    hashes : int array;  (** per predicate slot, [Hashtbl.hash] of its name *)
    preds : string array;  (** the body predicates by first occurrence: the slots *)
    slot : int array;  (** per subgoal, its predicate's slot *)
    subgoals : int array array;  (** per slot, its subgoals in body order *)
  }
end

(** Equivalence classes of views with each class's representative (its
    first member) compiled.  Only representatives are matched, so one
    value built when the classes are holds everything view tuples need
    from the views.  Immutable. *)
module Classes : sig
  type t

  (** [compile classes] compiles each class's first member. *)
  val compile : View.t list list -> t

  (** Every view in a class of its own. *)
  val of_views : View.t list -> t

  val members : t -> View.t list list
end

(** A view tuple with its codes, as tuple-cores consume it. *)
type coded = {
  tuple : t;
  codes : int array;
      (** the arguments as query codes; a head constant of the view the
          query lacks, occurrence [k], is coded [-1 - k] *)
  pattern : Pattern.t;
  consts : int array;
      (** per view constant occurrence, its query code, or -1 if the
          query lacks it; shared by the view's tuples *)
  slots : int array;
      (** per view body atom, its predicate's {!Query_code.t} slot;
          shared by the view's tuples *)
}

(** [compute_coded ~query classes] compiles [query] and computes
    [T(Q,V)] for the representatives of [classes].  The query should
    normally be minimized first (CoreCover step 1).

    Only views whose body predicates all occur in the query are matched:
    any other view has no tuple.  On the 272 representative star views
    of the end-to-end catalog, 50.9 per query pass the filter.  Over
    the 16 traced [rewrite_cold] queries (seed 1, 855 tuples) matching
    allocates 6.8 kilowords per query, where freezing the query,
    interning the canonical database and evaluating the views over it
    allocated 30.4.

    The tuples are those, and in the order, that evaluating each view
    over the canonical database gives: view by view in class order, each
    view's tuples sorted by {!Vplan_cq.Term.compare_const} on the frozen
    spellings (["@X"] for variable [X]) and deduplicated.  Evaluating
    the views over the canonical database, with the indexed evaluator or
    the backtracking one of the test oracles, is the test oracle.  A
    view body constant the query lacks matches nothing; a view head
    constant the query lacks is an argument of every tuple of that view.
    Each tuple's {!t} is built once, here, for the covers and the reply.

    [domains] (default 1) fans the per-view matching out across that
    many domains ({!Vplan_parallel.Parallel.map}); each view's match has
    its own binding array, and the result is independent of the worker
    count.

    A [?budget] is ticked once per matched view (in whichever domain
    matches it) and shared with the fan-out's exception barrier, so a
    deadline or cancellation stops all workers within one view.

    Runs in two traced phases: [canonical_db] compiles the query, and
    [view_tuples] matches, annotated with the number of representatives
    ([views]) and of tuples ([tuples]). *)
val compute_coded :
  ?budget:Vplan_core.Budget.t ->
  ?domains:int ->
  query:Query.t ->
  Classes.t ->
  Query_code.t * coded list

(** [compute ~query views] is the tuples of {!compute_coded} over
    [views], each compiled in-call as a class of its own. *)
val compute :
  ?budget:Vplan_core.Budget.t ->
  ?domains:int ->
  query:Query.t ->
  View.t list ->
  t list
