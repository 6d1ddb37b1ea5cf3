open Vplan_cq
open Vplan_relational

type t = {
  atom : Atom.t;
  view : View.t;
}

let equal t1 t2 = Atom.equal t1.atom t2.atom
let compare t1 t2 = Atom.compare t1.atom t2.atom
let pp ppf t = Atom.pp ppf t.atom

let compute ?budget ?(domains = 1) ~query views =
  let canonical, idb =
    Vplan_obs.Obs.phase "canonical_db" (fun () ->
        let canonical = Canonical.freeze query in
        (* one interned database for all views: each (predicate, bound
           positions) index is built once; index construction is
           mutex-guarded, so the parallel fan-out can share it *)
        (canonical, Indexed_db.of_database (Canonical.database canonical)))
  in
  let tuples_of_view view =
    (* one tick per view: cancellation reaches each worker between views *)
    Vplan_core.Budget.tick budget;
    let result = Indexed_db.answers idb view in
    Relation.fold
      (fun tuple acc ->
        let args = Canonical.thaw_tuple canonical tuple in
        { atom = Atom.make (View.name view) args; view } :: acc)
      result []
    |> List.rev
  in
  (* a view with a body predicate the query lacks matches nothing in D_Q *)
  let preds = Names.sset_of_list (Query.body_preds query) in
  let matchable (view : View.t) =
    List.for_all (fun (a : Atom.t) -> Names.Sset.mem a.pred preds) view.body
  in
  Vplan_obs.Obs.phase "view_tuples" (fun () ->
      let tuples =
        List.concat
          (Vplan_parallel.Parallel.map ?budget ~domains tuples_of_view
             (List.filter matchable views))
      in
      Vplan_obs.Trace.annotate "views" (float_of_int (List.length views));
      Vplan_obs.Trace.annotate "tuples" (float_of_int (List.length tuples));
      tuples)
