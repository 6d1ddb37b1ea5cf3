open Vplan_cq
open Vplan_relational
open Vplan_views
module Interned = Vplan_exec.Interned
module Exec = Vplan_exec.Exec

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

(* The one evaluation of a plan, on the execution engine's step over the
   image: each step joins the environments with its (renamed) subgoal
   and projects them onto the kept variables, giving GSR_i; [f acc step
   gsr] folds over the GSRs in order.  Variables are coded by first
   binding ([var]); [layout] holds the last GSR's codes. *)
let fold_gsrs img plan f init =
  let codes = Hashtbl.create 16 in
  let var x =
    match Hashtbl.find_opt codes x with
    | Some v -> v
    | None ->
        let v = Hashtbl.length codes in
        Hashtbl.add codes x v;
        v
  in
  let (layout, envs), acc =
    List.fold_left
      (fun ((layout, envs), acc) step ->
        let st = Exec.compile img ~var layout step.evaluated in
        let kept = List.map var (Names.Sset.elements step.kept) |> List.sort Int.compare in
        let kept = Array.of_list kept in
        let envs = Exec.project (Exec.slots st) kept (Exec.join st envs) in
        ((kept, envs), f acc step envs))
      (([||], [ [||] ]), init)
      plan
  in
  ((var, layout, envs), acc)

let gsr_sizes img plan =
  List.rev (snd (fold_gsrs img plan (fun acc _ envs -> List.length envs :: acc) []))

let answers img ~head plan =
  let (var, layout, envs), () = fold_gsrs img plan (fun () _ _ -> ()) () in
  let cols =
    List.map
      (function
        | Term.Cst c -> Fun.const c
        | Term.Var x ->
            let k = Option.get (Array.find_index (Int.equal (var x)) layout) in
            fun env -> Interned.const img env.(k))
      head.Atom.args
  in
  let tuple env = List.map (fun col -> col env) cols in
  Relation.of_tuples (Atom.arity head) (List.map tuple envs)

(* size(·) counts cells (tuples x attributes), consistently with M2; this
   is what makes dropping an attribute visible to the cost measure even
   when it does not reduce the tuple count (the reversed orderings of
   Example 6.1).  The evaluation is abandoned as soon as the partial sum
   reaches [bound]: the per-step terms are nonnegative, so no completion
   can come back under it. *)
let cost_of_plan_bounded img ?(bound = max_int) plan =
  let relation_costs =
    List.fold_left (fun acc step -> acc + M2.relation_cells img step.subgoal) 0 plan
  in
  if relation_costs >= bound then None
  else begin
    let exception Over in
    try
      let _, total =
        fold_gsrs img plan
          (fun acc step envs ->
            let acc = acc + (List.length envs * max 1 (Names.Sset.cardinal step.kept)) in
            if relation_costs + acc >= bound then raise Over;
            acc)
          0
      in
      Some (relation_costs + total)
    with Over -> None
  end

(* unbounded: only a cost saturating [max_int] is cut off *)
let cost_of_plan img plan = Option.value (cost_of_plan_bounded img plan) ~default:max_int

let optimal_pruned ?budget ?(bound = max_int) img ~annotate body =
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
            match cost_of_plan_bounded img ~bound:current plan with
            | Some c -> Some (plan, c)
            | None -> best)
          None perms
      in
      best
