open Vplan_cq
open Vplan_relational
open Vplan_views

type step = {
  subgoal : Atom.t;
  evaluated : Atom.t;
  dropped : string list;
  kept : Names.Sset.t;
}

type plan = step list

let pp_plan ppf plan =
  let pp_step ppf s =
    Format.fprintf ppf "%a{%s}" Atom.pp s.subgoal (String.concat "," s.dropped)
  in
  Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp_step ppf plan

let vars_of_atoms atoms =
  List.fold_left (fun acc a -> Names.Sset.union acc (Atom.var_set a)) Names.Sset.empty atoms

let take n l = List.filteri (fun i _ -> i < n) l
let drop n l = List.filteri (fun i _ -> i >= n) l

(* Assemble the plan from the final (possibly renamed) atom list.  The
   kept set at position i is: variables bound so far that still occur in
   the head or in a later atom.  [renamed_back] maps fresh variables
   introduced by the heuristic to the original names they replaced, so
   that the reported drop annotations use the rewriting's own variables. *)
let assemble ~head ~original ~modified ~renamed_back =
  let n = List.length modified in
  let head_vars = Atom.var_set head in
  let rec kept_sets i acc =
    if i > n then List.rev acc
    else
      let bound = vars_of_atoms (take i modified) in
      let later = vars_of_atoms (drop i modified) in
      let keep = Names.Sset.inter bound (Names.Sset.union head_vars later) in
      kept_sets (i + 1) (keep :: acc)
  in
  let keeps = Array.of_list (kept_sets 1 []) in
  List.mapi
    (fun i (orig, modif) ->
      let prev_kept = if i = 0 then Names.Sset.empty else keeps.(i - 1) in
      let bound = Names.Sset.union prev_kept (Atom.var_set modif) in
      let dropped_here = Names.Sset.elements (Names.Sset.diff bound keeps.(i)) in
      let original_name x =
        match Names.Smap.find_opt x renamed_back with Some y -> y | None -> x
      in
      {
        subgoal = orig;
        evaluated = modif;
        dropped = List.sort_uniq String.compare (List.map original_name dropped_here);
        kept = keeps.(i);
      })
    (List.combine original modified)

let supplementary ~head order =
  assemble ~head ~original:order ~modified:order ~renamed_back:Names.Smap.empty

let heuristic ~views ~query ~head order =
  let n = List.length order in
  let modified = ref order in
  let renamed_back = ref Names.Smap.empty in
  let used = ref (Names.Sset.union (Atom.var_set head) (vars_of_atoms order)) in
  for i = 1 to n - 1 do
    (* Variables bound by the processed prefix that still occur in a later
       subgoal are candidates for the renaming test. *)
    let prefix = take i !modified and suffix = drop i !modified in
    let suffix_vars = vars_of_atoms suffix in
    let candidates =
      Names.Sset.elements (Names.Sset.inter (vars_of_atoms prefix) suffix_vars)
    in
    List.iter
      (fun y ->
        let fresh = Names.fresh ~used:!used (y ^ "_dropped") in
        let rename = Subst.singleton y (Term.Var fresh) in
        let prefix' = List.map (Atom.apply rename) (take i !modified) in
        let candidate_body = prefix' @ drop i !modified in
        match Query.make head candidate_body with
        | Error _ -> () (* head variable would lose its binding *)
        | Ok p' ->
            if Expansion.is_equivalent_rewriting ~views ~query p' then begin
              modified := candidate_body;
              used := Names.Sset.add fresh !used;
              let original = match Names.Smap.find_opt y !renamed_back with
                | Some orig -> orig
                | None -> y
              in
              renamed_back := Names.Smap.add fresh original !renamed_back
            end)
      candidates
  done;
  assemble ~head ~original:order ~modified:!modified ~renamed_back:!renamed_back

let gsr_sizes db plan =
  let _, rev_sizes =
    List.fold_left
      (fun (envs, sizes) step ->
        let envs = Eval.extend db envs step.evaluated in
        let envs = Eval.project ~onto:step.kept envs in
        (envs, List.length envs :: sizes))
      ([ Eval.empty_env ], [])
      plan
  in
  List.rev rev_sizes

(* size(·) counts cells (tuples x attributes), consistently with M2; this
   is what makes dropping an attribute visible to the cost measure even
   when it does not reduce the tuple count (the reversed orderings of
   Example 6.1). *)
let cost_of_plan db plan =
  let relation_costs =
    List.fold_left (fun acc step -> acc + M2.relation_cells db step.subgoal) 0 plan
  in
  let widths = List.map (fun step -> max 1 (Names.Sset.cardinal step.kept)) plan in
  let gsr_cells =
    List.fold_left2 (fun acc size w -> acc + (size * w)) 0 (gsr_sizes db plan) widths
  in
  relation_costs + gsr_cells

let answers db ~head plan =
  let envs =
    List.fold_left
      (fun envs step ->
        Eval.project ~onto:step.kept (Eval.extend db envs step.evaluated))
      [ Eval.empty_env ] plan
  in
  let tuples = List.map (fun env -> Eval.tuple_of_env env head.Atom.args) envs in
  Relation.of_tuples (Atom.arity head) tuples

(* Like [cost_of_plan] but abandons the evaluation as soon as the partial
   sum reaches [bound]: the per-step terms are nonnegative, so no
   completion can come back under it. *)
let cost_of_plan_bounded db ?(bound = max_int) plan =
  let relation_costs =
    List.fold_left (fun acc step -> acc + M2.relation_cells db step.subgoal) 0 plan
  in
  if relation_costs >= bound then None
  else begin
    let exception Over in
    try
      let _, total =
        List.fold_left
          (fun (envs, acc) step ->
            let envs = Eval.extend db envs step.evaluated in
            let envs = Eval.project ~onto:step.kept envs in
            let w = max 1 (Names.Sset.cardinal step.kept) in
            let acc = acc + (List.length envs * w) in
            if relation_costs + acc >= bound then raise Over;
            (envs, acc))
          ([ Eval.empty_env ], 0)
          plan
      in
      Some (relation_costs + total)
    with Over -> None
  end

let optimal_pruned ?budget ?(bound = max_int) db ~annotate body =
  (* [Orderings.permutations] raises the typed width-limit error past its
     cap, which also bounds this fold. *)
  match Orderings.permutations body with
  | [] -> if 0 < bound then Some ([], 0) else None
  | perms ->
      let best =
        List.fold_left
          (fun best order ->
            Vplan_core.Budget.tick budget;
            let plan = annotate order in
            let current = match best with Some (_, c) -> c | None -> bound in
            match cost_of_plan_bounded db ~bound:current plan with
            | Some c -> Some (plan, c)
            | None -> best)
          None perms
      in
      best

let optimal db ~annotate body =
  match optimal_pruned db ~annotate body with
  | Some r -> r
  | None -> assert false (* unbounded search over a non-empty permutation list *)
