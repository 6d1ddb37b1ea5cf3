open Vplan_cq
module Parallel = Vplan_parallel.Parallel
module Obs = Vplan_obs.Obs
module Trace = Vplan_obs.Trace
module Metrics = Vplan_obs.Metrics
module Hypergraph = Vplan_hypergraph.Hypergraph

let candidates_total = Metrics.counter "vplan_select_candidates_total"
let pruned_total = Metrics.counter "vplan_select_pruned_total"

type 'plan choice = { rewriting : Query.t; plan : 'plan; cost : float }

(* Acyclic bodies come with a Yannakakis-consistent join order for free
   (the join tree's parents-before-children order); costing that single
   order seeds the branch-and-bound search with a bound just above it.
   Accepted DP results are bound-independent and the permutation folds
   return the first order attaining the minimum either way, so seeding
   changes which states get pruned — never which plan is returned. *)
let tree_seed body =
  match Hypergraph.tree_order body with
  | Some (_ :: _ :: _ as order) -> Some order
  | Some _ | None -> None

(* Rank candidates cheapest-estimated-first so the incumbent starts
   strong; keep the original position for the deterministic tie-break.
   A single candidate needs no estimate at all. *)
let rank est (candidates : Query.t list) =
  let indexed = List.mapi (fun i p -> (i, p)) candidates in
  match indexed with
  | [] | [ _ ] -> indexed
  | _ ->
      let src = M2.estimated est in
      List.map (fun (i, p) -> (M2.cost src p.Query.body, i, p)) indexed
      |> List.stable_sort (fun (a, i, _) (b, j, _) ->
             match Float.compare a b with 0 -> Int.compare i j | c -> c)
      |> List.map (fun (_, i, p) -> (i, p))

let rec note incumbent c =
  let cur = Atomic.get incumbent in
  if c < cur && not (Atomic.compare_and_set incumbent cur c) then note incumbent c

(* Score the ranked candidates under a shared incumbent.  Each worker
   reads [bound] = the next float above the incumbent, so a candidate can
   only be pruned when it provably costs MORE than the incumbent — ties
   are always evaluated in full, making the final min-by-(cost, position)
   independent of domain count and of scheduling. *)
let run ?budget ?(domains = 1) ~score ranked =
  match ranked with
  | [] -> None
  | first :: rest ->
      let incumbent = Atomic.make Float.infinity in
      let pruned = Atomic.make 0 in
      let eval (idx, cand) =
        match score ~bound:(Float.succ (Atomic.get incumbent)) cand with
        | Some (r, cost) ->
            note incumbent cost;
            Some (idx, r, cost)
        | None ->
            Atomic.incr pruned;
            None
      in
      let seeded = eval first in
      let rest_results = Parallel.map ?budget ~domains eval rest in
      Metrics.add candidates_total (List.length ranked);
      Metrics.add pruned_total (Atomic.get pruned);
      Trace.annotate "candidates" (float_of_int (List.length ranked));
      Trace.annotate "pruned" (float_of_int (Atomic.get pruned));
      List.fold_left
        (fun best r ->
          match (best, r) with
          | None, r -> r
          | best, None -> best
          | Some (bi, _, bc), Some (i, _, c) ->
              if c < bc || (c = bc && i < bi) then r else best)
        seeded rest_results
      |> Option.map (fun (_, (rewriting, plan), cost) -> { rewriting; plan; cost })

let m2 ?budget ?domains ?(filters = []) ~rank:est src candidates =
  Obs.phase "plan_select" @@ fun () ->
  let memo = M2.memo src in
  let memo_before = if Trace.enabled () then Option.map Subplan.counters memo else None in
  let score ~bound (p : Query.t) =
    let body = p.Query.body in
    (* the quick reject the DP would apply anyway, hoisted so the tree
       order is never costed for a hopeless candidate; filter atoms only
       ever ADD relation cells, so it is sound with filters too *)
    if M2.lower_bound src body >= bound then None
    else
      match filters with
      | [] -> (
          let bound, seeded =
            match tree_seed body with
            | None -> (bound, None)
            | Some order ->
                let c = M2.cost src order in
                if Float.succ c < bound then (Float.succ c, Some (order, c))
                else (bound, None)
          in
          (* [None] is unreachable when seeded (the tree order itself
             costs under the bound); the seed is the sound completion *)
          match M2.optimal ?budget ~bound src body with
          | Some (order, cost) -> Some ((p, order), cost)
          | None -> Option.map (fun (order, c) -> ((p, order), c)) seeded)
      | _ :: _ ->
          let body, order, cost = Filter.improve ?budget src ~filters body in
          if cost < bound then Some ((Query.make_exn p.Query.head body, order), cost)
          else None
  in
  let result = run ?budget ?domains ~score (rank est candidates) in
  (match (memo, memo_before) with
  | Some m, Some before ->
      let after = Subplan.counters m in
      Trace.annotate "memo_hits" (float_of_int (after.hits - before.hits));
      Trace.annotate "memo_misses" (float_of_int (after.misses - before.misses))
  | _ -> ());
  result

let m3 ?budget ?domains ~rank:est ~annotate db candidates =
  Obs.phase "plan_select" @@ fun () ->
  let score ~bound (p : Query.t) =
    (* M3 costs are integers: below the float bound means below its
       ceiling *)
    let bound = if bound = Float.infinity then max_int else int_of_float (Float.ceil bound) in
    let annotate = annotate p in
    let bound =
      match tree_seed p.Query.body with
      | None -> bound
      | Some order -> (
          match M3.cost_of_plan_bounded db ~bound (annotate order) with
          | Some c when c + 1 < bound -> c + 1
          | Some _ | None -> bound)
    in
    M3.optimal_pruned ?budget ~bound db ~annotate p.Query.body
    |> Option.map (fun (plan, c) -> ((p, plan), float_of_int c))
  in
  run ?budget ?domains ~score (rank est candidates)

type m2_choice = { m2_rewriting : Query.t; m2_order : Atom.t list; m2_cost : int }

let best_m2 ?memo ?domains ?filters db candidates =
  m2 ?domains ?filters ~rank:(Estimate.analyze db) (M2.exact ?memo db) candidates
  |> Option.map (fun c ->
         { m2_rewriting = c.rewriting; m2_order = c.plan; m2_cost = int_of_float c.cost })

let best_m2_estimated est candidates = m2 ~rank:est (M2.estimated est) candidates
