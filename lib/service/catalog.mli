(** Resident view catalogs.

    The paper's experiments (Section 7) fix a view set and run hundreds
    of queries against it; the per-query cost of CoreCover is dominated
    by view-side work — parsing, minimization, equivalence-class
    grouping — that does not depend on the query at all.  A [Catalog.t]
    runs that preprocessing {e once}: it validates the view set, groups
    the views into equivalence classes (with their canonical signatures,
    {!Vplan_views.Equiv_class.signature}) and keeps the result as an
    immutable value that any number of requests — on any number of
    domains — can share without synchronization.

    Catalogs evolve by {e generations}: {!add_views} and {!remove_views}
    return a new catalog with the generation counter bumped, reusing the
    existing class structure instead of regrouping from scratch (adding
    a view costs one signature plus the within-bucket equivalence
    checks; removal is a filter).

    Order invariant: the partition, in class order and in member order,
    always equals what {!Vplan_views.Equiv_class.group_views} computes on
    the current member list — classes ordered by their first member's
    position in {!views}, members in {!views} order.  {!remove_views}
    keeps it by moving a class whose representative it removes to its
    new first member's position.  CoreCover over a catalog therefore
    lists rewritings, and the atoms within them, exactly as over
    {!create} on the same view list.

    Every generation compiles each class's representative for
    view-tuple matching ({!Vplan_views.View_tuple.Classes}) as it is
    built, so requests on it compile nothing.

    A generation built by {!add_views} or {!remove_views} also records
    its parent and the representatives that mutation touched
    ({!touched}), so a cache over the parent can keep whatever the
    mutation cannot change without comparing the two catalogs. *)

open Vplan_views

type t

(** [create views] validates the set (distinct names, consistent
    arities) and runs the view-side preprocessing.  The result is
    generation 1.  A [?budget] bounds the grouping's minimization and
    equivalence searches. *)
val create : ?budget:Vplan_core.Budget.t -> View.t list -> (t, string) result

(** [create_exn views] is {!create}, raising [Invalid_argument] on an
    invalid set. *)
val create_exn : ?budget:Vplan_core.Budget.t -> View.t list -> t

(** [add_views t views] is a new generation with [views] appended,
    grouped incrementally against the existing classes.  Fails like
    {!create} when a name collides or an arity is inconsistent. *)
val add_views :
  ?budget:Vplan_core.Budget.t -> t -> View.t list -> (t, string) result

(** [remove_views t names] is a new generation without the named views.
    Fails when a name is not a member. *)
val remove_views : t -> string list -> (t, string) result

(** [restore ~generation ~views ~keyed] rebuilds a catalog from
    persisted parts {e without} regrouping — the preprocessing skip that
    makes a warm restart fast.  Validates the view set and that [keyed]
    partitions exactly [views]; it trusts the class structure itself,
    which the snapshot codec protects with a checksum. *)
val restore :
  generation:int ->
  views:View.t list ->
  keyed:(string * View.t list) list ->
  (t, string) result

(** [touched t ~parent] is [Some reps] when [t] was built from
    [parent] by one {!add_views} or {!remove_views}, and [None] for any
    other pair, e.g. when [t] comes from {!create} or {!restore}.
    [reps] are the first view of each class the mutation opened and the
    removed representative of each class it emptied or moved (an
    equivalent successor has the same body predicates).  Every other
    class keeps its representative and its order relative to the other
    untouched classes. *)
val touched : t -> parent:t -> View.t list option

(** Monotone generation counter, starting at 1.  Two catalogs with the
    same generation that came from the same lineage have the same
    members. *)
val generation : t -> int

(** Current members, in insertion order. *)
val views : t -> View.t list

(** The equivalence-class partition with its representatives compiled,
    ready to pass to [Corecover.gmrs ~view_classes].  Built with the
    catalog, so a call allocates nothing. *)
val view_classes : t -> View_tuple.Classes.t

(** The signature-tagged partition — the persistent form a snapshot
    stores and {!restore} consumes. *)
val keyed : t -> (string * View.t list) list

val num_views : t -> int
val num_classes : t -> int

(** [find t name] looks a member up by view name. *)
val find : t -> string -> View.t option
