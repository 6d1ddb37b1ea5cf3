open Vplan_cq
open Vplan_views
open Vplan_rewrite

type t = {
  views : View.t list;
  view_classes : View.t list list option;
  base : Vplan_relational.Database.t;
  est : Estimate.t;
  view_db : Vplan_relational.Database.t option Atomic.t;
  memo : Subplan.t;
}

let create ?view_classes ?stats ~views base =
  let stats = match stats with Some s -> s | None -> Vplan_stats.Stats.collect base in
  {
    views;
    view_classes;
    base;
    est = Estimate.view_stats (Estimate.of_stats stats) views;
    view_db = Atomic.make None;
    memo = Subplan.create ();
  }

let estimate t = t.est
let memo t = t.memo

(* Materialized on first use and published by compare-and-set (never a
   [Lazy], which must not be forced from several domains): domains racing
   on a fresh context may both materialize, and the first published
   database — the same relations either way — is the one every caller
   reads. *)
let rec view_database t =
  match Atomic.get t.view_db with
  | Some db -> db
  | None ->
      (* traced: on the first exact plan after a context change this
         dominates the request, and explain should show it *)
      let db =
        Vplan_obs.Obs.phase "materialize" (fun () -> Materialize.views t.base t.views)
      in
      ignore (Atomic.compare_and_set t.view_db None (Some db));
      view_database t

type mode = Exact | Estimated
type strategy = [ `Supplementary | `Heuristic ]

type _ model =
  | M1 : unit model
  | M2 : mode -> Atom.t list model
  | M3 : strategy -> M3.plan model

let select : type p.
    ?budget:_ -> domains:int -> p model -> t -> Query.t -> Corecover.result ->
    p Select.choice option =
 fun ?budget ~domains model t query r ->
  let candidates = r.Corecover.rewritings in
  match model with
  | M1 ->
      List.nth_opt (M1.best candidates) 0
      |> Option.map (fun p ->
             { Select.rewriting = p; plan = (); cost = float_of_int (M1.cost p) })
  | M2 Exact ->
      let db = view_database t in
      Select.m2 ?budget ~domains ~filters:r.Corecover.filters ~rank:t.est
        (M2.exact ~memo:t.memo db) candidates
  | M2 Estimated -> Select.m2 ?budget ~domains ~rank:t.est (M2.estimated t.est) candidates
  | M3 strategy ->
      let annotate (p : Query.t) order =
        match strategy with
        | `Supplementary -> M3.supplementary ~head:p.head order
        | `Heuristic -> M3.heuristic ~views:t.views ~query ~head:p.head order
      in
      Select.m3 ?budget ~domains ~rank:t.est ~annotate (view_database t) candidates

let plan ?budget ?max_covers ?(domains = 1) model t query =
  let r =
    Corecover.all_minimal ?budget ?max_results:max_covers ?view_classes:t.view_classes
      ~domains ~query ~views:t.views ()
  in
  (r, select ?budget ~domains model t query r)
