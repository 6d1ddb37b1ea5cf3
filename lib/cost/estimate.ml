open Vplan_cq
open Vplan_relational
module Histogram = Vplan_stats.Histogram
module Stats = Vplan_stats.Stats

type relation_stats = {
  card : float;
  distinct : float array; (* per column *)
  hists : Histogram.t option array; (* per column; [||] when not collected *)
}

type t = relation_stats Names.Smap.t

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

let missing_stats = { card = 0.; distinct = [||]; hists = [||] }

let stats_for t pred =
  match Names.Smap.find_opt pred t with Some s -> Some s | None -> Some missing_stats

(* A profile of an atom or of a join prefix: estimated cardinality plus a
   per-variable distinct-value estimate. *)
type profile = {
  p_card : float;
  p_dv : float Names.Smap.t;
}

let unit_profile = { p_card = 1.; p_dv = Names.Smap.empty }
let profile_card p = p.p_card
let profile_width p = max 1 (Names.Smap.cardinal p.p_dv)

let cap_dv card dv = Names.Smap.map (fun v -> Float.min v (Float.max card 1.)) dv

(* Selections local to one atom: constants and repeated variables.
   When the column carries a histogram, a constant's selectivity is read
   off its bucket instead of assuming a uniform 1/V(R,i). *)
let atom_profile t (a : Atom.t) =
  match stats_for t a.pred with
  | None | Some { card = 0.; _ } -> { p_card = 0.; p_dv = Names.Smap.empty }
  | Some stats ->
      let column_dv i =
        if i < Array.length stats.distinct then stats.distinct.(i) else 1.
      in
      let const_selectivity i c =
        let dv = column_dv i in
        let uniform = 1. /. dv in
        match c with
        | Term.Int n when i < Array.length stats.hists -> (
            match stats.hists.(i) with
            | Some h -> Histogram.eq_fraction ~distinct:(int_of_float dv) h n
            | None -> uniform)
        | Term.Int _ | Term.Str _ -> uniform
      in
      let card = ref stats.card in
      let dv = ref Names.Smap.empty in
      List.iteri
        (fun i term ->
          match term with
          | Term.Cst c -> card := !card *. const_selectivity i c
          | Term.Var x -> (
              match Names.Smap.find_opt x !dv with
              | None -> dv := Names.Smap.add x (column_dv i) !dv
              | Some existing ->
                  (* a repeated variable within the atom: equality between
                     two columns *)
                  card := !card /. Float.max existing (column_dv i);
                  dv := Names.Smap.add x (Float.min existing (column_dv i)) !dv))
        a.args;
      let card = Float.max !card 0. in
      { p_card = card; p_dv = cap_dv card !dv }

let join_profiles left right =
  let shared =
    Names.Smap.filter (fun x _ -> Names.Smap.mem x right.p_dv) left.p_dv
  in
  let selectivity =
    Names.Smap.fold
      (fun x vl acc ->
        let vr = Names.Smap.find x right.p_dv in
        acc /. Float.max vl vr)
      shared 1.
  in
  let card = left.p_card *. right.p_card *. selectivity in
  let dv =
    Names.Smap.union
      (fun _ vl vr -> Some (Float.min vl vr))
      left.p_dv right.p_dv
  in
  { p_card = Float.max card 0.; p_dv = cap_dv card dv }

(* Estimated stats for view relations: a view's cardinality is the
   estimated size of its body join, and each head column's distinct
   count is the join profile's estimate for that variable (1 for a
   constant head argument).  The returned catalog extends [t], so
   rewriting bodies mixing views and base predicates still estimate. *)
let view_stats t views =
  List.fold_left
    (fun acc (v : Query.t) ->
      let profile =
        List.fold_left
          (fun p a -> join_profiles p (atom_profile t a))
          unit_profile v.Query.body
      in
      let card = profile.p_card in
      let distinct =
        Array.of_list
          (List.map
             (function
               | Term.Var x -> (
                   match Names.Smap.find_opt x profile.p_dv with
                   | Some dv -> Float.min dv (Float.max card 1.)
                   | None -> 1.)
               | Term.Cst _ -> 1.)
             v.Query.head.Atom.args)
      in
      Names.Smap.add v.Query.head.Atom.pred
        { card; distinct; hists = [||] }
        acc)
    t views

(* size(g) on estimated statistics: stored cardinality times arity —
   the estimated counterpart of [M2.relation_cells]. *)
let relation_cells_est t (a : Atom.t) =
  match stats_for t a.Atom.pred with
  | Some s -> s.card *. float_of_int (max 1 (Atom.arity a))
  | None -> 0.

(* Estimated rows of a join prefix, folding join profiles in the given
   order: the per-operator estimate of explain analyze, whose engine
   supplies the order it actually ran (the fold is not associative). *)
let cardinality t = function
  | [] -> Float.nan
  | a :: rest ->
      (List.fold_left (fun p b -> join_profiles p (atom_profile t b)) (atom_profile t a) rest)
        .p_card
