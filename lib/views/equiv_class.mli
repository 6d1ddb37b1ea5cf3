(** Equivalence-class grouping (Section 5.2).

    With many views, [T(Q,V)] can be large even though few of its members
    are genuinely different.  The paper groups (a) views that are
    equivalent as queries and (b) view tuples with identical tuple-cores,
    running CoreCover on one representative per class.  The number of
    representative view tuples is then bounded by the number of query
    subgoals, independent of the number of views — the key to the
    scalability results of Section 7 (Figures 7 and 9).

    Naively the view grouping performs a pairwise NP-hard equivalence
    check per (view, class) pair.  {!group_views} instead buckets views by
    a cheap canonical {!signature} that is invariant under variable
    renaming and {e necessary} for equivalence, so the homomorphism
    searches only run within a bucket — near-linear on the paper's
    star/chain workloads while producing exactly the same classes. *)

open Vplan_cq

(** [group_by ~key xs] partitions [xs] into the classes of equal [key],
    with one hash probe per element: classes in first-occurrence order of
    their representatives, members in input order.  Used to group view
    tuples by their tuple-core bitmask. *)
val group_by : key:('a -> int) -> 'a list -> 'a list list

(** [representatives groups] takes the first member of each class. *)
val representatives : 'a list list -> 'a list

(** [signature v] is a canonical fingerprint of the view: the sorted
    predicate/arity multiset, head-argument pattern and per-variable
    join-degree profile of the {e minimized} view body.  Equivalent views
    have isomorphic minimized queries (cores are unique up to renaming),
    and the fingerprint never mentions variable names, so equal signatures
    are necessary for equivalence — bucketing by signature is a sound
    partition refinement. *)
val signature : ?budget:Vplan_core.Budget.t -> Query.t -> string

(** [view_equivalent v1 v2] decides equivalence of two views as queries,
    ignoring their (necessarily distinct) head predicate names. *)
val view_equivalent : ?budget:Vplan_core.Budget.t -> Query.t -> Query.t -> bool

(** [group_views views] groups views equivalent as queries (ignoring their
    distinct head predicate names: [v1 ≡ v5] in the car-loc-part example),
    comparing a view only with the class representatives of its
    {!signature} bucket.  The classes, their order (first occurrence) and
    their members' order are those of the pairwise grouping by
    {!view_equivalent}.  A [?budget] bounds the underlying
    minimization/equivalence searches. *)
val group_views : ?budget:Vplan_core.Budget.t -> View.t list -> View.t list list

(** [group_views_keyed views] is {!group_views} with each class tagged by
    its representative's {!signature} — the persistent form a long-lived
    view catalog keeps so views can later be added without regrouping the
    whole set.  [group_views views
    = List.map snd (group_views_keyed views)]. *)
val group_views_keyed :
  ?budget:Vplan_core.Budget.t -> View.t list -> (string * View.t list) list

(** [add_to_keyed classes views] extends a {!group_views_keyed} partition
    with new views incrementally: each view joins the first class whose
    signature matches and whose representative it is equivalent to, or
    opens a new class at the end.  The result is the same partition (same
    class order, same member order) as regrouping
    [List.concat_map snd classes @ views] from scratch.  Cost is one
    signature plus the within-bucket equivalence checks per added view —
    independent of the catalog size when signatures differ. *)
val add_to_keyed :
  ?budget:Vplan_core.Budget.t ->
  (string * View.t list) list ->
  View.t list ->
  (string * View.t list) list
