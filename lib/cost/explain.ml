open Vplan_cq

(* One line per step of an M3 plan, [detail step size] closing its
   bracket, then the plan's total. *)
let steps ppf img (plan : M3.plan) detail =
  let n = List.length plan in
  List.iteri
    (fun i ((step : M3.step), size) ->
      let action = if i = 0 then "scan" else "join" in
      let dropped =
        match step.dropped with [] -> "" | ds -> "  drop {" ^ String.concat ", " ds ^ "}"
      in
      Format.fprintf ppf "step %d/%d: %s %a%s  [relation %d tuples; %s]@." (i + 1) n action
        Atom.pp step.subgoal dropped
        (Vplan_exec.Interned.cardinality img step.subgoal.Atom.pred)
        (detail step size))
    (List.combine plan (M3.gsr_sizes img plan));
  Format.fprintf ppf "total cost: %d cells@." (M3.cost_of_plan img plan)

(* An M2 plan is the M3 plan that drops nothing (its head keeps every
   variable): the supplementary relations are the intermediate
   relations, and the costs agree. *)
let m2 ppf img order =
  let vars = List.sort_uniq String.compare (List.concat_map Atom.vars order) in
  let head = Atom.make "ir" (List.map (fun x -> Term.Var x) vars) in
  let plan = M3.supplementary ~head order in
  steps ppf img plan (fun _ ir -> Printf.sprintf "after: %d tuples" ir)

let m3 ppf img plan =
  steps ppf img plan (fun (step : M3.step) gsr ->
      Printf.sprintf "GSR: %d tuples x %d attrs" gsr (Names.Sset.cardinal step.kept))
