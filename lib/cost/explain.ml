open Vplan_cq
open Vplan_relational

let m2 ppf db order =
  let sizes = M2.intermediate_sizes db order in
  let n = List.length order in
  List.iteri
    (fun i (atom, ir) ->
      let action = if i = 0 then "scan" else "join" in
      Format.fprintf ppf "step %d/%d: %s %a  [relation %d tuples; after: %d tuples]@." (i + 1)
        n action Atom.pp atom (Eval.relation_size db atom) ir)
    (List.combine order sizes);
  Format.fprintf ppf "total cost: %.0f cells@." (M2.cost (M2.exact db) order)

let m3 ppf db (plan : M3.plan) =
  let sizes = M3.gsr_sizes db plan in
  let n = List.length plan in
  List.iteri
    (fun i ((step : M3.step), gsr) ->
      let action = if i = 0 then "scan" else "join" in
      let dropped =
        match step.dropped with [] -> "" | ds -> "  drop {" ^ String.concat ", " ds ^ "}"
      in
      Format.fprintf ppf "step %d/%d: %s %a%s  [relation %d tuples; GSR: %d tuples x %d attrs]@."
        (i + 1) n action Atom.pp step.subgoal dropped
        (Eval.relation_size db step.subgoal)
        gsr
        (Names.Sset.cardinal step.kept))
    (List.combine plan sizes);
  Format.fprintf ppf "total cost: %d cells@." (M3.cost_of_plan db plan)
