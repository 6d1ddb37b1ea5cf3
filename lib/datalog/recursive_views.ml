open Vplan_cq
open Vplan_relational
module Inverse_rules = Vplan_baselines.Inverse_rules

(* the fixpoint's facts of [query]'s predicate that match its constants
   and repeated variables, as tuples over its arguments *)
let answers_direct ?max_rounds ~program ~query base =
  Seminaive.query ?max_rounds program base (Query.make_exn query [ query ])

let certain_answers ?max_rounds ~views ~program ~query view_db =
  let recovered = Inverse_rules.recover_base ~views view_db in
  let raw = answers_direct ?max_rounds ~program ~query recovered in
  Relation.fold
    (fun tuple acc ->
      if List.exists Inverse_rules.is_skolem tuple then acc else Relation.add tuple acc)
    raw
    (Relation.empty (Relation.arity raw))
