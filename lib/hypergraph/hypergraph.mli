(** Query hypergraphs, GYO reduction and join trees.

    A conjunctive body induces a hypergraph with one hyperedge per atom
    (the atom's variable set).  The GYO (Graham / Yu–Özsoyoğlu)
    reduction repeatedly removes {e ears} — edges whose variables
    shared with any other live edge are covered by a single live
    {e witness} edge — and succeeds exactly on the α-acyclic bodies.
    The witness recorded for each removed ear is its parent in a join
    tree: for every variable, the tree nodes containing it form a
    connected subtree (the running-intersection property), which is
    what makes semi-join programs (Yannakakis) and dynamic programming
    over the tree complete.

    The reduction is deterministic — ears and witnesses are taken in
    body-position order — so classification and tree shape are stable
    across runs.  Cost is O(n² · v) per sweep on n atoms and v
    variables, negligible at the ≤ 20-subgoal bodies the cost layer
    accepts. *)

open Vplan_cq

type tree = {
  atoms : Atom.t array;  (** body atoms in original order *)
  parent : int array;  (** witness at removal time; [-1] at the root *)
  root : int;  (** last surviving edge; [-1] for an empty body *)
  removal : int list;  (** ear-removal order: children before parents *)
}

type classification = Acyclic of tree | Cyclic

(** [classify body] runs GYO reduction.  Empty bodies, single atoms,
    constant-only atoms and duplicate atoms are all acyclic. *)
val classify : Atom.t list -> classification

val is_acyclic : Atom.t list -> bool

(** [join_order t] lists node indices with every parent before its
    children (the root first).  Reversed, it is a valid bottom-up
    order. *)
val join_order : tree -> int list

(** [tree_order body] is the body reordered along [join_order], or
    [None] when the body is cyclic.  The result is a permutation of
    [body]. *)
val tree_order : Atom.t list -> Atom.t list option

(** [schedule ~size atoms] is the selectivity-first static join order
    of both evaluators: repeatedly pick the atom with the most bound
    arguments (constants, or variables of atoms already picked),
    tie-breaking on smaller [size] (its stored relation's cardinality),
    then on original position. *)
val schedule : size:(Atom.t -> int) -> Atom.t list -> Atom.t list

(** [children t] is the child adjacency of the join tree, children in
    removal order. *)
val children : tree -> int list array

(** Multi-line rendering of the join tree, two-space indent per
    level — deterministic, for [explain] surfaces and cram tests. *)
val pp_tree : Format.formatter -> tree -> unit

val tree_to_string : tree -> string
