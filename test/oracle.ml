(* The backtracking evaluator's view of the cost models: M2's
   intermediate sizes and M3's supplementary relations computed by
   [Eval] over a boxed database.  Production code sizes both with the
   execution engine's join step over the interned image; these are the
   references it is tested against. *)

open Vplan

module M2 = struct
  (* [size(g)]: cardinality times arity (at least 1) *)
  let relation_cells db (a : Atom.t) = Eval.relation_size db a * max 1 (Atom.arity a)

  (* the tuple counts of IR_1, ..., IR_n *)
  let intermediate_sizes db order =
    let _, rev_sizes =
      List.fold_left
        (fun (envs, sizes) atom ->
          let envs = Eval.extend db envs atom in
          (envs, List.length envs :: sizes))
        ([ Eval.empty_env ], [])
        order
    in
    List.rev rev_sizes
end

module M3 = struct
  (* each step extends the environments by its (renamed) subgoal and
     projects them onto the kept variables, giving GSR_i *)
  let fold_gsrs db (plan : Vplan.M3.plan) f init =
    List.fold_left
      (fun (envs, acc) (step : Vplan.M3.step) ->
        let envs = Eval.project ~onto:step.kept (Eval.extend db envs step.evaluated) in
        (envs, f acc step envs))
      ([ Eval.empty_env ], init)
      plan

  let gsr_sizes db plan =
    List.rev (snd (fold_gsrs db plan (fun acc _ envs -> List.length envs :: acc) []))

  let answers db ~(head : Atom.t) plan =
    let envs, () = fold_gsrs db plan (fun () _ _ -> ()) () in
    let tuples = List.map (fun env -> Eval.tuple_of_env env head.Atom.args) envs in
    Relation.of_tuples (Atom.arity head) tuples

  (* the relation cells plus each GSR's tuples times its width; [None]
     once the running total reaches [bound] *)
  let cost_of_plan_bounded db ?(bound = max_int) (plan : Vplan.M3.plan) =
    let relation_costs =
      List.fold_left
        (fun acc (step : Vplan.M3.step) -> acc + M2.relation_cells db step.subgoal)
        0 plan
    in
    let total =
      List.fold_left2
        (fun acc (step : Vplan.M3.step) size ->
          acc + (size * max 1 (Names.Sset.cardinal step.kept)))
        relation_costs plan (gsr_sizes db plan)
    in
    if total < bound then Some total else None

  let cost_of_plan db plan = Option.get (cost_of_plan_bounded db plan)
end
