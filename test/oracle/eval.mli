(** The backtracking evaluator of conjunctive queries over boxed
    databases: the oracle the hash-join engine ({!Vplan.Exec}) is tested
    against.

    Evaluation is a backtracking multiway join: atoms are processed left to
    right, accumulating bindings of variables to constants.  The same
    primitives give (a) query answers, (b) view definitions applied to
    the canonical database, and (c) the intermediate-relation sizes of
    cost models M2 and M3, for the references in {!Oracle}. *)

open Vplan

(** An assignment of constants to (a subset of) the query's variables. *)
type env

val empty_env : env
val env_find : env -> string -> Term.const option
val env_of_bindings : (string * Term.const) list -> env

(** [extend db envs atom] extends each environment in every way that makes
    [atom] a fact of [db], deduplicated. *)
val extend : Database.t -> env list -> Atom.t -> env list

(** [schedule db atoms] is the selectivity-first static join order used by
    {!satisfying_envs}: {!Vplan.Hypergraph.schedule} over the
    cardinalities of [db]'s relations ({!relation_size}). *)
val schedule : Database.t -> Atom.t list -> Atom.t list

(** [satisfying_envs db atoms] joins all atoms, starting from the empty
    environment.  Atoms are scheduled selectivity-first (most bound
    arguments, then smallest relation) — reordering never changes the
    resulting environment set — and deduplication is deferred to
    projection time: starting from the single empty environment no two
    intermediate environments can be equal, so the result is
    duplicate-free by construction.  The order of the returned list is
    unspecified. *)
val satisfying_envs : Database.t -> Atom.t list -> env list

(** [project ~onto envs] deduplicates environments restricted to the
    variables [onto] (unbound variables are simply absent).  This is the
    attribute-dropping primitive of cost model M3. *)
val project : onto:Names.Sset.t -> env list -> env list

(** [distinct_count envs] is the number of distinct environments. *)
val distinct_count : env list -> int

(** [tuple_of_env env terms] instantiates a term list under [env]; raises
    [Invalid_argument] if a variable is unbound. *)
val tuple_of_env : env -> Term.t list -> Relation.tuple

(** [answers db q] computes the answer relation of [q] on [db] (distinct
    head tuples). *)
val answers : Database.t -> Query.t -> Relation.t

(** [matching_count db atom] is the number of facts matching the atom's
    pattern (selections applied). *)
val matching_count : Database.t -> Atom.t -> int

(** [relation_size db atom] is the cardinality of the stored relation named
    by the atom's predicate (0 when absent): the paper's [size(g_i)]. *)
val relation_size : Database.t -> Atom.t -> int

(** [answers_ucq db u] evaluates a union of conjunctive queries: the union
    of the disjuncts' answers. *)
val answers_ucq : Database.t -> Ucq.t -> Relation.t
