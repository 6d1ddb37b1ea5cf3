(** Typed errors for the library boundaries.

    Every stage of the CoreCover pipeline is worst-case exponential, so
    production callers run it under a {!Budget}.  When a limit fires —
    or an input is structurally unsupported — the library raises (or
    returns) a value of this type instead of an ad-hoc [Failure] or
    [Invalid_argument] string, so callers can distinguish "out of budget"
    (retry with more, or accept a truncated result) from "bad input"
    (fix the query) without parsing exception messages. *)

(** A syntax error with its source position (1-based line and column). *)
type parse_error = {
  line : int;
  col : int;
  msg : string;
}

type t =
  | Timeout of { elapsed_ms : float; limit_ms : float }
      (** the wall-clock deadline of a {!Budget} expired *)
  | Step_limit of { limit : int }
      (** the step budget (search nodes, fixpoint rounds) ran out *)
  | Cover_limit of { limit : int }
      (** the set-cover enumeration was capped at [limit] results *)
  | Cancelled
      (** cooperative cancellation: a sibling domain failed, or the
          caller cancelled the shared {!Budget} *)
  | Width_limit of { subgoals : int; max_subgoals : int }
      (** the (minimized) query has more subgoals than fit in a
          native-int cover bitmask *)
  | Parse of parse_error  (** a syntax error in the Datalog surface syntax *)
  | No_data
      (** a request needs a base database (plan, analyze) and none is
          loaded *)
  | Invariant of string
      (** an internal invariant did not hold: a library bug, reported
          to the request instead of an [assert false] *)

exception Error of t

(** [is_resource e] is [true] for the budget-style errors — [Timeout],
    [Step_limit], [Cover_limit] and [Cancelled] — after which an anytime
    caller may return a sound-but-incomplete result.  [Width_limit] and
    [Parse] are input errors, [No_data] a missing precondition and
    [Invariant] a bug: retrying with a bigger budget cannot help. *)
val is_resource : t -> bool

(** Render the error as one deterministic human-readable line (elapsed
    wall-clock times are deliberately omitted so output is reproducible). *)
val to_string : t -> string


(** [parse_to_string e] renders a parse error as ["line:col: msg"] —
    prefix it with a file name to obtain the conventional
    [file:line:col: msg] form. *)
val parse_to_string : parse_error -> string

(** [parse_at ~line ~col msg] raises [Error (Parse _)]. *)
val parse_at : line:int -> col:int -> string -> 'a
