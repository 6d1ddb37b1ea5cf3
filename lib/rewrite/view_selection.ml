open Vplan_views
module Minimize = Vplan_containment.Minimize

let is_answering_set ~query views = Corecover.has_rewriting ~query ~views

let relevant_views ~query ~views =
  let qm = Minimize.minimize query in
  List.filter
    (fun view ->
      Tuple_core.cores ~query:qm (View_tuple.compute ~query:qm [ view ])
      |> List.exists (fun core -> not (Tuple_core.is_empty core)))
    views

let minimal_answering_set ~query ~views =
  if not (is_answering_set ~query views) then None
  else begin
    (* start from the relevant views only, then drop greedily *)
    let start =
      let relevant = relevant_views ~query ~views in
      if is_answering_set ~query relevant then relevant else views
    in
    let rec shrink kept =
      let try_drop v =
        let without = List.filter (fun v' -> v' != v) kept in
        if is_answering_set ~query without then Some without else None
      in
      match List.find_map try_drop kept with
      | Some smaller -> shrink smaller
      | None -> kept
    in
    Some (shrink start)
  end
