open Vplan_cq
open Vplan_relational
module Histogram = Vplan_stats.Histogram
module Stats = Vplan_stats.Stats

type relation = {
  card : float;
  distinct : float array;
  hists : Histogram.t option array;
}

type t = relation Names.Smap.t

let find t pred = Names.Smap.find_opt pred t

let analyze db =
  List.fold_left
    (fun acc pred ->
      match Database.find pred db with
      | None -> acc
      | Some r ->
          let arity = Relation.arity r in
          let columns = Array.init arity (fun _ -> ref Term.Set.empty) in
          Relation.iter
            (fun tuple ->
              List.iteri
                (fun i c -> columns.(i) := Term.Set.add (Term.Cst c) !(columns.(i)))
                tuple)
            r;
          let stats =
            {
              card = float_of_int (Relation.cardinality r);
              distinct = Array.map (fun s -> float_of_int (max 1 (Term.Set.cardinal !s))) columns;
              hists = [||];
            }
          in
          Names.Smap.add pred stats acc)
    Names.Smap.empty (Database.predicates db)

(* The same catalog built from a persisted Stats.t instead of a database
   scan: cardinalities and distinct counts carry over directly, and the
   equi-width histograms refine constant selectivities. *)
let of_stats stats =
  List.fold_left
    (fun acc (pred, (tbl : Stats.table)) ->
      let rs =
        {
          card = float_of_int tbl.Stats.card;
          distinct =
            Array.map
              (fun (c : Stats.column) -> float_of_int (max 1 c.Stats.distinct))
              tbl.Stats.columns;
          hists = Array.map (fun (c : Stats.column) -> c.Stats.hist) tbl.Stats.columns;
        }
      in
      Names.Smap.add pred rs acc)
    Names.Smap.empty (Stats.bindings stats)

(* -- coded profiles -------------------------------------------------- *)

(* A dense variable index: the names sorted by [String.compare], so
   index order is the key order of a [Names.Smap]; a name's code is its
   position, found by binary search. *)
type vars = string array

(* [x] inserted into the sorted, duplicate-free [names]; [names] itself
   when already there *)
let rec insert x names =
  match names with
  | [] -> [ x ]
  | y :: ys ->
      let c = String.compare x y in
      if c < 0 then x :: names
      else if c = 0 then names
      else
        let ys' = insert x ys in
        if ys' == ys then names else y :: ys'

let index atoms =
  let add names = function Term.Var x -> insert x names | Term.Cst _ -> names in
  Array.of_list (List.fold_left (fun acc (a : Atom.t) -> List.fold_left add acc a.args) [] atoms)

(* [-1] when [x] is not indexed *)
let code (vars : vars) x =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      let c = String.compare x vars.(mid) in
      if c = 0 then mid else if c < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length vars)

(* A profile is one float array: the cardinality, the width (variables
   present, at least 1), then one distinct count per indexed variable,
   [absent] where the atom or join has no such variable.  Distinct
   counts are at least 1 or nan, never [absent]. *)
type profile = float array

let card_slot = 0
let width_slot = 1
let header = 2
let absent = -1.

let profile_card (p : profile) = p.(card_slot)
let profile_width (p : profile) = int_of_float p.(width_slot)

let empty_profile vars card =
  let p = Array.make (header + Array.length vars) absent in
  p.(card_slot) <- card;
  p.(width_slot) <- 1.;
  p

(* Caps every present distinct count at [max card 1] and records the
   width. *)
let finish (p : profile) card =
  let cap = Float.max card 1. and width = ref 0 in
  for k = header to Array.length p - 1 do
    let v = p.(k) in
    if v <> absent then begin
      p.(k) <- Float.min v cap;
      incr width
    end
  done;
  p.(width_slot) <- float_of_int (max 1 !width);
  p

let column_dv stats i = if i < Array.length stats.distinct then stats.distinct.(i) else 1.

(* When the column carries a histogram, a constant's selectivity is read
   off its bucket instead of assuming a uniform 1/V(R,i). *)
let const_selectivity stats i c =
  let dv = column_dv stats i in
  match c with
  | Term.Int n when i < Array.length stats.hists -> (
      match stats.hists.(i) with
      | Some h -> Histogram.eq_fraction ~distinct:(int_of_float dv) h n
      | None -> 1. /. dv)
  | Term.Int _ | Term.Str _ -> 1. /. dv

(* Selections local to one atom: constants and repeated variables,
   applied in argument order to the cardinality slot.  A predicate
   without statistics, or an empty relation, has no variables. *)
let atom_profile t vars (a : Atom.t) =
  match find t a.pred with
  | None -> empty_profile vars 0.
  | Some stats when stats.card = 0. -> empty_profile vars 0.
  | Some stats ->
      let p = empty_profile vars stats.card in
      List.iteri
        (fun i term ->
          match term with
          | Term.Cst c -> p.(card_slot) <- p.(card_slot) *. const_selectivity stats i c
          | Term.Var x ->
              let k = code vars x in
              if k < 0 then invalid_arg ("Estimate.atom_profile: unindexed variable " ^ x);
              let k = header + k and dv = column_dv stats i in
              let existing = p.(k) in
              if existing = absent then p.(k) <- dv
              else begin
                (* a repeated variable within the atom: equality between
                   two columns *)
                p.(card_slot) <- p.(card_slot) /. Float.max existing dv;
                p.(k) <- Float.min existing dv
              end)
        a.args;
      let card = Float.max p.(card_slot) 0. in
      p.(card_slot) <- card;
      finish p card

(* Index order is [Names.Smap] key order, so the shared variables'
   selectivity divides in the order the map-based fold did, and every
   estimate is bit-identical to it. *)
let join_profiles (l : profile) (r : profile) =
  let p = Array.make (Array.length l) absent in
  let selectivity = ref 1. in
  for k = header to Array.length l - 1 do
    let vl = l.(k) and vr = r.(k) in
    if vl <> absent then
      if vr <> absent then begin
        selectivity := !selectivity /. Float.max vl vr;
        p.(k) <- Float.min vl vr
      end
      else p.(k) <- vl
    else if vr <> absent then p.(k) <- vr
  done;
  let card = l.(card_slot) *. r.(card_slot) *. !selectivity in
  p.(card_slot) <- Float.max card 0.;
  finish p card

(* The profile of a join prefix, folded left to right.  Starting from
   the first atom's profile rather than joining it to the unit profile
   changes no bit: that join multiplies the cardinality by 1 and caps
   the distinct counts where they are already capped. *)
let fold_profiles t vars = function
  | [] -> empty_profile vars 1.
  | a :: rest ->
      List.fold_left (fun p b -> join_profiles p (atom_profile t vars b)) (atom_profile t vars a) rest

(* Estimated stats for view relations: a view's cardinality is the
   estimated size of its body join, and each head column's distinct
   count is the join profile's estimate for that variable (1 for a
   constant head argument).  The returned catalog extends [t], so
   rewriting bodies mixing views and base predicates still estimate. *)
let view_stats t views =
  List.fold_left
    (fun acc (v : Query.t) ->
      let vars = index v.Query.body in
      let profile = fold_profiles t vars v.Query.body in
      let card = profile.(card_slot) in
      let distinct =
        Array.of_list
          (List.map
             (function
               | Term.Var x -> (
                   let k = code vars x in
                   if k >= 0 && profile.(header + k) <> absent then
                     Float.min profile.(header + k) (Float.max card 1.)
                   else 1.)
               | Term.Cst _ -> 1.)
             v.Query.head.Atom.args)
      in
      Names.Smap.add v.Query.head.Atom.pred { card; distinct; hists = [||] } acc)
    t views

(* size(g) on estimated statistics: stored cardinality times arity —
   the estimated counterpart of [M2.relation_cells]. *)
let relation_cells_est t (a : Atom.t) =
  match find t a.Atom.pred with
  | Some s -> s.card *. float_of_int (max 1 (Atom.arity a))
  | None -> 0.

(* Estimated rows of a join prefix, folding join profiles in the given
   order: the per-operator estimate of explain analyze, whose engine
   supplies the order it actually ran (the fold is not associative). *)
let cardinality t = function
  | [] -> Float.nan
  | atoms -> profile_card (fold_profiles t (index atoms) atoms)
