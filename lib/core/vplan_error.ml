type parse_error = {
  line : int;
  col : int;
  msg : string;
}

type t =
  | Timeout of { elapsed_ms : float; limit_ms : float }
  | Step_limit of { limit : int }
  | Cover_limit of { limit : int }
  | Cancelled
  | Width_limit of { subgoals : int; max_subgoals : int }
  | Parse of parse_error
  | No_data
  | Invariant of string

exception Error of t

let is_resource = function
  | Timeout _ | Step_limit _ | Cover_limit _ | Cancelled -> true
  | Width_limit _ | Parse _ | No_data | Invariant _ -> false

let parse_to_string e = Printf.sprintf "%d:%d: %s" e.line e.col e.msg

(* Elapsed times are omitted on purpose: error output must be identical
   run to run so the cram tests (and users' scripts) can match on it. *)
let to_string = function
  | Timeout { limit_ms; _ } ->
      Printf.sprintf "wall-clock deadline of %gms exceeded" limit_ms
  | Step_limit { limit } -> Printf.sprintf "step budget of %d exhausted" limit
  | Cover_limit { limit } ->
      Printf.sprintf "cover enumeration capped at %d results" limit
  | Cancelled -> "cancelled"
  | Width_limit { subgoals; max_subgoals } ->
      Printf.sprintf "query has %d subgoals after minimization; at most %d supported"
        subgoals max_subgoals
  | Parse e -> parse_to_string e
  | No_data -> "no base database loaded (use: data load FILE)"
  | Invariant what -> "internal invariant broken: " ^ what

let parse_at ~line ~col msg = raise (Error (Parse { line; col; msg }))
