(** Cooperative resource budgets for the exponential search loops.

    A [Budget.t] bounds a library call three ways at once:

    - a wall-clock deadline ([?deadline_ms], relative to {!create});
    - a step budget ([?max_steps]) counting loop-head ticks — search
      nodes in homomorphism/tuple-core/set-cover enumeration, fixpoint
      rounds in seminaive evaluation — which, unlike wall-clock time, is
      deterministic and therefore reproducible in tests;
    - a cancellation flag, settable from any domain with {!cancel}.

    The budget is shared: the same [t] is passed to every stage of a
    pipeline (and to every worker domain of [Parallel.map]), so the
    first limit tripped anywhere stops all of them.  All state lives in
    [Atomic.t] cells, so a budget may be freely read and tripped from
    multiple domains; the first trip wins and its reason sticks.

    Checking is cooperative: loops call {!tick} at their heads.  A
    tripped budget makes every subsequent {!tick}/{!check} raise
    [Vplan_error.Error], so cancellation reaches each domain within one
    loop iteration.  [tick None] is a no-op, keeping unbudgeted calls
    on their original code path. *)

type t

(** [create ?deadline_ms ?max_steps ()] starts the clock now.
    Omitted limits are unlimited. *)
val create : ?deadline_ms:float -> ?max_steps:int -> unit -> t

(** [of_limits ?deadline_ms ?max_steps ()] is [Some (create ...)] when a
    limit is given and [None] otherwise, so a caller with no limits set
    stays on the unbudgeted path. *)
val of_limits : ?deadline_ms:float -> ?max_steps:int -> unit -> t option

(** Count one unit of work and raise [Vplan_error.Error] if any limit
    has been reached (the deadline is polled every 64 steps to keep the
    check cheap).  Once a budget trips, every later [check] re-raises
    the same reason. *)
val check : t -> unit

(** [tick (Some b)] is [check b]; [tick None] does nothing. *)
val tick : t option -> unit

(** Trip the budget with [Vplan_error.Cancelled] (idempotent: a budget
    that already tripped keeps its original reason).  Safe to call from
    any domain. *)
val cancel : t -> unit

(** The reason the budget tripped, if it has. *)
val stopped : t -> Vplan_error.t option

(** Milliseconds of wall-clock time since {!create}. *)
val elapsed_ms : t -> float
