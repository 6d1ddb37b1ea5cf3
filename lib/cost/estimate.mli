(** System-R-style cardinality estimation for the M2 cost model.

    The paper's optimizer costs plans against true intermediate sizes; a
    production optimizer only has statistics.  This module implements the
    classical catalog (per-relation cardinality, per-column distinct
    counts, optional equi-width histograms) and the textbook estimation
    rules:

    - a constant in column [i] selects [1 / V(R,i)] of the relation —
      or its histogram bucket's fraction when a histogram is present;
    - a repeated variable within an atom keeps [1 / max(V, V')];
    - an equi-join on a shared variable keeps [1 / max(V(L,x), V(R,x))]
      of the cross product, with distinct-value counts propagated as the
      minimum across joined columns.

    A catalog is built either by scanning a database ({!analyze}) or
    from a persisted {!Vplan_stats.Stats.t} ({!of_stats}); {!view_stats}
    extends it with estimated statistics for view relations so the
    estimated cost mode never materializes a view.  The ablation bench
    [estimate] measures how much plan quality is lost by optimizing
    against estimates instead of true sizes. *)

open Vplan_cq
open Vplan_relational

type t

(** [analyze db] scans every relation once and builds the catalog
    (no histograms). *)
val analyze : Database.t -> t

(** [of_stats stats] builds the catalog from collected statistics,
    including per-column histograms. *)
val of_stats : Vplan_stats.Stats.t -> t

(** [view_stats t views] extends [t] with estimated statistics for each
    view relation: cardinality = estimated body join size, head-column
    distinct counts read off the join profile.  Views are given as their
    definitions; the head predicate names the view relation. *)
val view_stats : t -> Query.t list -> t

(** [cardinality t atoms] — estimated rows of the join of [atoms], after
    each atom's constant and repeated-variable selections, folding join
    profiles left to right ([nan] for no atoms).  A single atom gives its
    selection's estimate. *)
val cardinality : t -> Atom.t list -> float

(** {2 Join profiles}

    A profile carries the estimated cardinality and per-variable
    distinct counts of an atom or join prefix; M2's estimated
    cardinality source folds these instead of materializing intermediate
    relations. *)

type profile

(** The profile of the empty join prefix (one empty tuple). *)
val unit_profile : profile

(** [atom_profile t atom] — the atom after its local selections. *)
val atom_profile : t -> Atom.t -> profile

(** [join_profiles l r] — equi-join on the shared variables.
    Commutative; not associative (distinct counts are capped by the
    cardinality as they propagate), so fold in a canonical order when a
    subset's profile must be well-defined. *)
val join_profiles : profile -> profile -> profile

val profile_card : profile -> float

(** Number of variables in the profile (at least 1), the M2 width. *)
val profile_width : profile -> int

(** [relation_cells_est t atom] — estimated [size(g)]: stored
    cardinality times arity. *)
val relation_cells_est : t -> Atom.t -> float
