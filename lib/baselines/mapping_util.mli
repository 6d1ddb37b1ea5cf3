(** Shared machinery for the MiniCon baseline and the bucket algorithm
    (a test oracle): unification of query subgoals with view subgoals,
    and construction of the rewriting atom induced by such a unifier. *)

open Vplan_cq

(** [maps_to_head_var sigma ~view x] — the unification class of query
    variable [x] contains a head variable of the (renamed) [view], so the
    rewriting atom retains [x]'s join linkage.  A class resolving to a
    constant or containing only existential view variables returns
    [false]: in both cases [x]'s equality constraints are invisible
    outside the covered subgoals, so MiniCon must drag every subgoal
    using [x] into the same MCD (and a distinguished [x] cannot be
    covered at all). *)
val maps_to_head_var : Subst.t -> view:Query.t -> string -> bool

(** [existentials_unspecialized sigma ~view] — no existential variable of
    the (renamed) [view] is unified with a constant or with another view
    variable.  A head homomorphism only acts on head variables, so such a
    unifier is not expressible and the candidate mapping must be
    rejected. *)
val existentials_unspecialized : Subst.t -> view:Query.t -> bool

(** [head_atom ~sigma ~query_vars ~used view] builds the rewriting atom for
    a view used under unifier [sigma]: head arguments resolving to query
    terms keep them; remaining view variables become fresh variables
    (avoiding [used]).  Returns the atom and the enlarged used-set. *)
val head_atom :
  sigma:Subst.t ->
  query_vars:Names.Sset.t ->
  used:Names.Sset.t ->
  Query.t ->
  Atom.t * Names.Sset.t
