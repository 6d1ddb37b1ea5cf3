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
  Vplan_obs.Obs.phase "view_tuples" (fun () ->
      let tuples =
        List.concat (Vplan_parallel.Parallel.map ?budget ~domains tuples_of_view views)
      in
      Vplan_obs.Trace.annotate "views" (float_of_int (List.length views));
      Vplan_obs.Trace.annotate "tuples" (float_of_int (List.length tuples));
      tuples)

let expansion ~avoid tv =
  let avoid = Names.Sset.union avoid (Atom.var_set tv.atom) in
  let view', _ = Query.rename_apart ~avoid tv.view in
  (* Bind the renamed head variables to the tuple's arguments.  The tuple
     was produced by evaluating the view, so repeated head variables carry
     equal arguments and binding never conflicts. *)
  let theta =
    List.fold_left2
      (fun s head_arg tuple_arg ->
        match head_arg with
        | Term.Var x -> Subst.bind x tuple_arg s
        | Term.Cst _ -> s)
      Subst.empty view'.Query.head.Atom.args tv.atom.Atom.args
  in
  let body = List.map (Atom.apply theta) view'.Query.body in
  let existentials =
    List.fold_left
      (fun acc (a : Atom.t) ->
        Names.Sset.union acc
          (Names.Sset.filter (fun x -> not (Subst.mem x theta)) (Atom.var_set a)))
      Names.Sset.empty view'.Query.body
  in
  (body, existentials)
