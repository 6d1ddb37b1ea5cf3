open Vplan_cq
open Vplan_views
module Database = Vplan_relational.Database
module Snapshot = Vplan_store.Snapshot
module Record = Vplan_store.Record
module Vplan_error = Vplan_core.Vplan_error

let ( let* ) = Result.bind

(* Query.pp prints a rule without its trailing dot; the parser wants
   the dot.  Rule texts in snapshots and journal records are exactly
   what [catalog load] would accept. *)
let render_view v = Query.to_string v ^ "."

let view_of_text text =
  match Parser.parse_rule text with
  | Ok q -> Ok (View.of_query q)
  | Error e -> Error (Vplan_error.parse_to_string e)

let facts_of_db db =
  List.map
    (fun (a : Atom.t) ->
      ( a.Atom.pred,
        List.map
          (function
            | Term.Cst c -> c
            | Term.Var _ -> invalid_arg "Persist: non-ground fact in database")
          a.Atom.args ))
    (Database.facts db)

let snapshot_of ?base ?stats cat =
  let views = Catalog.views cat in
  let index_of =
    let tbl = Hashtbl.create (List.length views) in
    List.iteri (fun i v -> Hashtbl.replace tbl (View.name v) i) views;
    fun v -> Hashtbl.find tbl (View.name v)
  in
  {
    Snapshot.seq = 0;
    generation = Catalog.generation cat;
    views = List.map render_view views;
    classes =
      List.map
        (fun (signature, members) -> (signature, List.map index_of members))
        (Catalog.keyed cat);
    base = Option.map facts_of_db base;
    stats = Option.map Vplan_stats.Stats.bindings stats;
  }

let state_of_snapshot (s : Snapshot.t) =
  let* views =
    List.fold_left
      (fun acc text ->
        let* acc = acc in
        let* v = view_of_text text in
        Ok (v :: acc))
      (Ok []) s.Snapshot.views
  in
  let views = Array.of_list (List.rev views) in
  let* keyed =
    List.fold_left
      (fun acc (signature, members) ->
        let* acc = acc in
        Ok ((signature, List.map (fun i -> views.(i)) members) :: acc))
      (Ok []) s.Snapshot.classes
  in
  let* cat =
    Catalog.restore ~generation:s.Snapshot.generation
      ~views:(Array.to_list views) ~keyed:(List.rev keyed)
  in
  Ok
    ( cat,
      Option.map Database.of_facts s.Snapshot.base,
      Option.map Vplan_stats.Stats.of_bindings s.Snapshot.stats )

let add_views_batch cat vs =
  match cat with
  | Some cat ->
      let* cat = Catalog.add_views cat vs in
      Ok (Some cat)
  | None -> (
      match Catalog.create vs with
      | Ok cat -> Ok (Some cat)
      | Error e -> Error e)

let apply_op (cat, base) = function
  | Record.Add_view text ->
      let* v = view_of_text text in
      let* cat = add_views_batch cat [ v ] in
      Ok (cat, base)
  | Record.Remove_view name -> (
      match cat with
      | None -> Error ("replay: remove " ^ name ^ " with no catalog")
      | Some c ->
          let* c = Catalog.remove_views c [ name ] in
          Ok (Some c, base))
  | Record.Load_data facts -> Ok (cat, Some (Database.of_facts facts))

(* Consecutive adds are grouped into one [add_views] call: replaying a
   thousand-view journal costs one incremental grouping pass, not a
   thousand.  Generations advance once per batch, so a recovered
   generation may be below the pre-crash one; it is still monotone
   within the process, which is all the caches key on. *)
let replay state ops =
  let flush (cat, base) pending =
    match List.rev pending with
    | [] -> Ok (cat, base)
    | vs ->
        let* cat = add_views_batch cat vs in
        Ok (cat, base)
  in
  let* state, pending, n =
    List.fold_left
      (fun acc (_, op) ->
        let* state, pending, n = acc in
        match op with
        | Record.Add_view text ->
            let* v = view_of_text text in
            Ok (state, v :: pending, n + 1)
        | op ->
            let* state = flush state pending in
            let* state = apply_op state op in
            Ok (state, [], n + 1))
      (Ok (state, [], 0))
      ops
  in
  let* cat, base = flush state pending in
  Ok (cat, base, n)

let recover (r : Vplan_store.Store.recovery) =
  let* cat, base, stats =
    match r.r_snapshot with
    | None -> Ok (None, None, None)
    | Some snap ->
        let* cat, base, stats = state_of_snapshot snap in
        Ok (Some cat, base, stats)
  in
  let* cat, base, _ = replay (cat, base) r.r_replayed in
  (* snapshot statistics describe the snapshot's own base; a journaled
     Load_data replaced it, so the caller rescans instead *)
  let reloaded =
    List.exists (function _, Record.Load_data _ -> true | _ -> false) r.r_replayed
  in
  Ok (cat, base, if reloaded then None else stats)
