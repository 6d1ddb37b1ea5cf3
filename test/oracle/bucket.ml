open Vplan
module Mapping_util = Vplan_baselines.Mapping_util

type result = {
  buckets : Atom.t list list;
  candidates_checked : int;
  rewritings : Query.t list;
}

(* A view subgoal w covers query subgoal g when they unify and every
   distinguished query variable of g lands on a distinguished view
   position or a constant. *)
let bucket_entry ~(query : Query.t) ~used (view : Query.t) (w : Atom.t) (g : Atom.t) =
  match Unify.mgu_args Subst.empty g.Atom.args w.Atom.args with
  | None -> None
  | Some sigma ->
      let query_vars = Query.var_set query in
      let ok =
        List.for_all
          (fun x ->
            (not (Query.is_distinguished query x))
            || Mapping_util.maps_to_head_var sigma ~view x)
          (Atom.vars g)
      in
      if not ok then None
      else
        let atom, _ = Mapping_util.head_atom ~sigma ~query_vars ~used view in
        Some atom

let build_buckets ~query ~views ~used =
  List.map
    (fun g ->
      List.concat_map
        (fun view ->
          let view', _ = Query.rename_apart ~avoid:(Query.var_set query) view in
          List.filter_map (fun w -> bucket_entry ~query ~used view' w g) view'.Query.body
          |> List.sort_uniq Atom.compare)
        views)
    query.Query.body

let rec cartesian = function
  | [] -> [ [] ]
  | bucket :: rest ->
      let tails = cartesian rest in
      List.concat_map (fun entry -> List.map (fun tail -> entry :: tail) tails) bucket

let run ?(max_candidates = 100_000) ~mode ~query ~views () =
  let used = Query.var_set query in
  let buckets = build_buckets ~query ~views ~used in
  let product_size = List.fold_left (fun acc b -> acc * max 1 (List.length b)) 1 buckets in
  if List.exists (( = ) []) buckets then
    { buckets; candidates_checked = 0; rewritings = [] }
  else if product_size > max_candidates then
    invalid_arg
      (Printf.sprintf "Bucket.run: %d candidates exceed the cap %d" product_size
         max_candidates)
  else
    let keep p =
      match mode with
      | `Equivalent -> Expansion.is_equivalent_rewriting ~views ~query p
      | `Contained -> Expansion.expansion_contained_in_query ~views ~query p
    in
    let rewritings =
      cartesian buckets
      |> List.filter_map (fun body ->
             let body = List.sort_uniq Atom.compare body in
             match Query.make query.Query.head body with
             | Ok p when keep p -> Some p
             | Ok _ | Error _ -> None)
      |> List.fold_left
           (fun acc p ->
             if List.exists (Containment.isomorphic p) acc then acc else p :: acc)
           []
      |> List.rev
    in
    { buckets; candidates_checked = product_size; rewritings }
