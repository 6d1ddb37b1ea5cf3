open Vplan_cq
open Vplan_relational
open Vplan_exec
module Budget = Vplan_core.Budget
module Vplan_error = Vplan_core.Vplan_error

(* The round cap and an optional shared budget are both checked at the
   head of every fixpoint round: a non-terminating (or merely huge)
   recursion stops with a typed resource error instead of an opaque
   [Failure], and cancellation from another domain lands between rounds. *)
let round_check ?budget ~max_rounds round =
  if round > max_rounds then
    raise (Vplan_error.Error (Step_limit { limit = max_rounds }));
  Budget.tick budget

(* Semi-naive: each rule with k IDB body atoms yields k delta variants;
   variant i reads atom i from the delta relations and the other atoms
   from the full database.  Delta relations are stored in the same
   database under a reserved name. *)
let delta_name pred = "\x01delta:" ^ pred

let delta_variants ~idb (r : Query.t) =
  let rec variants prefix = function
    | [] -> []
    | (a : Atom.t) :: rest ->
        let this =
          if Names.Sset.mem a.pred idb then
            [ Query.make_exn r.head
                (List.rev_append prefix (Atom.make (delta_name a.pred) a.args :: rest)) ]
          else []
        in
        this @ variants (a :: prefix) rest
  in
  variants [] r.body

(* Every rule body is one [Exec.answers] over the database interned
   once per round; the budget is ticked per round only. *)
let evaluate ?budget ?(max_rounds = 10_000) program edb =
  let idb = Program.idb_predicates program in
  let rules = Program.rules program in
  let add_new ~known img acc (r : Query.t) =
    let pred = r.head.Atom.pred in
    Relation.fold
      (fun tuple acc ->
        match Database.find pred known with
        | Some rel when Relation.mem tuple rel -> acc
        | _ -> Database.add_fact pred tuple acc)
      (Exec.answers img r) acc
  in
  (* round 0: plain evaluation of every rule against the EDB *)
  let initial_delta =
    let img = Interned.of_database edb in
    List.fold_left (add_new ~known:Database.empty img) Database.empty rules
  in
  let with_deltas db delta =
    Names.Sset.fold
      (fun pred acc ->
        match Database.find pred delta with
        | Some rel -> Database.add_relation (delta_name pred) rel acc
        | None -> acc)
      idb db
  in
  let union_into db delta =
    Names.Sset.fold
      (fun pred acc ->
        match Database.find pred delta with
        | None -> acc
        | Some rel ->
            Relation.fold (fun t acc -> Database.add_fact pred t acc) rel acc)
      idb db
  in
  let rec loop db delta round =
    round_check ?budget ~max_rounds round;
    if Database.total_size delta = 0 then db
    else begin
      (* merge the delta first: non-delta body positions must see the
         complete current database, or derivations needing two new facts
         at different positions would be missed *)
      let db = union_into db delta in
      let img = Interned.of_database (with_deltas db delta) in
      (* facts derived this round that are not yet known are the next
         delta *)
      let next_delta =
        List.fold_left
          (fun acc r -> List.fold_left (add_new ~known:db img) acc (delta_variants ~idb r))
          Database.empty rules
      in
      loop db next_delta (round + 1)
    end
  in
  loop edb initial_delta 1

let query ?budget ?max_rounds program edb q =
  Exec.answers (Interned.of_database (evaluate ?budget ?max_rounds program edb)) q
