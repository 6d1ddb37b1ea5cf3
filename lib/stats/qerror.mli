(** Estimate-accuracy accounting: accumulators of q-errors
    (max(est/actual, actual/est), always ≥ 1) keyed by relation.

    The execution profile computes per-operator q-errors
    ({!Vplan_obs.Profile.qerror}); this module aggregates them into the
    running per-relation accuracy the server reports in [stats --json] —
    the signal that statistics have drifted and estimated-mode plans
    stopped tracking reality.  Accumulators are plain mutable records;
    the owner serializes access (the service holds them under its
    lock). *)

type acc

val create : unit -> acc

(** Fold one q-error in; [nan] samples are ignored, values below 1 are
    clamped to 1 (they can only arise from float noise). *)
val observe : acc -> float -> unit

val count : acc -> int

(** Largest q-error seen; [nan] when empty. *)
val max_q : acc -> float

(** Geometric mean of the q-errors — the conventional average for
    ratio errors; [nan] when empty. *)
val mean_q : acc -> float

(** A registry of accumulators keyed by relation name. *)
type by_rel

val create_registry : unit -> by_rel

(** [observe_rel r name q] folds [q] into [name]'s accumulator,
    creating it on first use. *)
val observe_rel : by_rel -> string -> float -> unit

(** Accumulators sorted by relation name. *)
val bindings : by_rel -> (string * acc) list
