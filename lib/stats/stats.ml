open Vplan_cq
open Vplan_relational

type column = {
  distinct : int;
  hist : Histogram.t option;
}

type table = {
  card : int;
  columns : column array;
}

type t = table Names.Smap.t

let empty = Names.Smap.empty

module Const_set = Set.Make (struct
  type t = Term.const

  let compare = Term.compare_const
end)

let collect_table ?buckets r =
  let arity = Relation.arity r in
  let card = Relation.cardinality r in
  let values = Array.make arity [] in
  Relation.iter
    (fun tuple ->
      List.iteri (fun i c -> values.(i) <- c :: values.(i)) tuple)
    r;
  let columns =
    Array.map
      (fun vs ->
        let distinct = Const_set.cardinal (Const_set.of_list vs) in
        let ints =
          List.filter_map (function Term.Int n -> Some n | Term.Str _ -> None) vs
        in
        (* Histograms only make sense when the column is entirely
           numeric; a mixed column falls back to distinct counts. *)
        let hist =
          if List.length ints = List.length vs then Histogram.create ?buckets ints
          else None
        in
        { distinct; hist })
      values
  in
  { card; columns }

let collect ?buckets db =
  List.fold_left
    (fun acc name ->
      match Database.find name db with
      | Some r -> Names.Smap.add name (collect_table ?buckets r) acc
      | None -> acc)
    empty (Database.predicates db)

let find name t = Names.Smap.find_opt name t
let bindings t = Names.Smap.bindings t
let of_bindings l = List.fold_left (fun m (k, v) -> Names.Smap.add k v m) empty l
let num_relations t = Names.Smap.cardinal t
let total_rows t = Names.Smap.fold (fun _ tbl acc -> acc + tbl.card) t 0
