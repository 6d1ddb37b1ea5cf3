open Vplan_cq
open Vplan_views

let improve ?budget src ~filters body =
  (* unbounded and unrestricted, so the DP always returns a plan *)
  let optimal body = Option.get (M2.optimal ?budget src body) in
  let filter_atoms = List.map (fun tv -> tv.View_tuple.atom) filters in
  let rec loop body remaining best_order best_cost =
    let try_one (best : (Atom.t * Atom.t list * float) option) f =
      let order, cost = optimal (body @ [ f ]) in
      match best with
      | Some (_, _, c) when c <= cost -> best
      | _ when cost < best_cost -> Some (f, order, cost)
      | _ -> best
    in
    match List.fold_left try_one None remaining with
    | None -> (body, best_order, best_cost)
    | Some (f, order, cost) ->
        loop (body @ [ f ]) (List.filter (fun g -> not (Atom.equal g f)) remaining) order cost
  in
  let order0, cost0 = optimal body in
  loop body filter_atoms order0 cost0
