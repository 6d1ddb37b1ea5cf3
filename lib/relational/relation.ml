open Vplan_cq

type tuple = Term.const list

module Tuple_set = Set.Make (struct
  type t = tuple

  let compare = List.compare Term.compare_const
end)

type t = {
  arity : int;
  tuples : Tuple_set.t;
}

let empty arity = { arity; tuples = Tuple_set.empty }
let arity r = r.arity
let cardinality r = Tuple_set.cardinal r.tuples

let add tuple r =
  if List.length tuple <> r.arity then
    invalid_arg
      (Printf.sprintf "Relation.add: tuple of arity %d into relation of arity %d"
         (List.length tuple) r.arity)
  else { r with tuples = Tuple_set.add tuple r.tuples }

(* Bulk load: one [of_list] (sort + dedup) pass instead of n balanced
   insertions.  Arity is still validated per tuple so the error matches
   the incremental path. *)
let of_tuples arity tuples =
  List.iter
    (fun t ->
      if List.length t <> arity then
        invalid_arg
          (Printf.sprintf
             "Relation.add: tuple of arity %d into relation of arity %d"
             (List.length t) arity))
    tuples;
  { arity; tuples = Tuple_set.of_list tuples }
let tuples r = Tuple_set.elements r.tuples
let mem tuple r = Tuple_set.mem tuple r.tuples
let fold f r acc = Tuple_set.fold f r.tuples acc
let iter f r = Tuple_set.iter f r.tuples
let equal r1 r2 = r1.arity = r2.arity && Tuple_set.equal r1.tuples r2.tuples
let subset r1 r2 = Tuple_set.subset r1.tuples r2.tuples

let union r1 r2 =
  if r1.arity <> r2.arity then invalid_arg "Relation.union: arity mismatch"
  else { r1 with tuples = Tuple_set.union r1.tuples r2.tuples }

let pp ppf r =
  let pp_tuple ppf t =
    Format.fprintf ppf "(%a)"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Term.pp_const)
      t
  in
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp_tuple)
    (tuples r)
