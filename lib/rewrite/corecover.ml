open Vplan_cq
open Vplan_views
module Minimize = Vplan_containment.Minimize
module Budget = Vplan_core.Budget
module Vplan_error = Vplan_core.Vplan_error
module Obs = Vplan_obs.Obs
module Trace = Vplan_obs.Trace

type stats = {
  num_views : int;
  num_view_classes : int;
  num_view_tuples : int;
  num_representative_tuples : int;
}

type completeness = Complete | Truncated of Vplan_error.t

type result = {
  minimized_query : Query.t;
  view_classes : View.t list list;
  view_tuples : View_tuple.t list;
  cores : (View_tuple.t * Tuple_core.t) list;
  tuple_classes : View_tuple.t list list;
  filters : View_tuple.t list;
  rewritings : Query.t list;
  covers : int list list;
  completeness : completeness;
  stats : stats;
}

(* Steps 1-3 of both variants: minimize, group views into equivalence
   classes, compute view tuples by matching the representatives'
   compiled bodies into the query, compute tuple-cores, group view
   tuples into same-core classes, and keep one representative (view
   tuple, core) pair per class.  The budget is the same object
   throughout, so a deadline tripping in any stage (or any worker
   domain) stops the remaining ones at their next tick. *)
let prepare ~budget ~view_classes ~domains ~query ~views =
  let qm = Obs.phase "minimize" (fun () -> Minimize.minimize ?budget query) in
  (* Subgoal sets are bitmasks in a native int ([Tuple_core.mask], the
     cover universe): more subgoals than bits would overflow silently. *)
  if List.length qm.Query.body > Sys.int_size - 1 then
    raise
      (Vplan_error.Error
         (Width_limit
            {
              subgoals = List.length qm.Query.body;
              max_subgoals = Sys.int_size - 1;
            }));
  let classes =
    Obs.phase "view_classes" (fun () ->
        (* a resident catalog (lib/service) groups and compiles its views
           once and passes the classes in; per-call grouping is the
           cold-start path *)
        let classes =
          match view_classes with
          | Some classes -> classes
          | None -> View_tuple.Classes.compile (Equiv_class.group_views ?budget views)
        in
        Trace.annotate "classes"
          (float_of_int (List.length (View_tuple.Classes.members classes)));
        classes)
  in
  let code, coded = View_tuple.compute_coded ?budget ~domains ~query:qm classes in
  let view_tuples = List.map (fun (tv : View_tuple.coded) -> tv.tuple) coded in
  let tuple_classes =
    Obs.phase "tuple_cores" (fun () ->
        let with_cores =
          List.combine view_tuples (Tuple_core.cores ?budget ~domains code coded)
        in
        (* [same_cover] is mask equality, so hash-bucketing by mask gives
           the same classes as a pairwise scan, in one probe per tuple *)
        let classes =
          Equiv_class.group_by ~key:(fun (_, c) -> c.Tuple_core.mask) with_cores
        in
        Trace.annotate "tuples" (float_of_int (List.length with_cores));
        Trace.annotate "classes" (float_of_int (List.length classes));
        classes)
  in
  let reps = Equiv_class.representatives tuple_classes in
  (qm, View_tuple.Classes.members classes, view_tuples, tuple_classes, reps)

let run ~budget ~view_classes ~domains ~query ~views ~covers_of =
  (* Anytime degradation: a budget tripping before any cover was produced
     (during minimization, view-tuple or tuple-core computation) yields an
     empty-but-sound result rather than an exception.  Input errors such
     as [Width_limit] still raise. *)
  Obs.phase "corecover" @@ fun () ->
  let fallback e =
    {
      minimized_query = query;
      view_classes = [];
      view_tuples = [];
      cores = [];
      tuple_classes = [];
      filters = [];
      rewritings = [];
      covers = [];
      completeness = Truncated e;
      stats =
        {
          num_views = List.length views;
          num_view_classes = 0;
          num_view_tuples = 0;
          num_representative_tuples = 0;
        };
    }
  in
  match
    let qm, view_classes, view_tuples, tuple_classes, reps =
      prepare ~budget ~view_classes ~domains ~query ~views
    in
    (* the set-cover instance: the nonempty cores, each with its index
       in [reps] *)
    let nonempty =
      List.filter (fun (_, (_, core)) -> not (Tuple_core.is_empty core))
        (List.mapi (fun i rep -> (i, rep)) reps)
    in
    let filters =
      List.filter_map
        (fun (tv, core) -> if Tuple_core.is_empty core then Some tv else None)
        reps
    in
    let index = Array.of_list (List.map fst nonempty) in
    let sets = Array.of_list (List.map (fun (_, (_, c)) -> c.Tuple_core.mask) nonempty) in
    let atoms = Array.of_list (List.map (fun (tv, _) -> tv.View_tuple.atom) reps) in
    let universe = (1 lsl List.length qm.Query.body) - 1 in
    let outcome = Obs.phase "set_cover" (fun () -> covers_of ~budget ~universe sets) in
    let covers = List.map (List.map (fun i -> index.(i))) outcome.Set_cover.covers in
    let rewritings =
      List.map (fun cover -> Query.make_exn qm.head (List.map (fun i -> atoms.(i)) cover)) covers
    in
    let completeness =
      match Option.bind budget Budget.stopped with
      | Some e -> Truncated e
      | None -> (
          match outcome.Set_cover.stopped with
          | Some e -> Truncated e
          | None -> Complete)
    in
    {
      minimized_query = qm;
      view_classes;
      view_tuples;
      cores = reps;
      tuple_classes = List.map (List.map fst) tuple_classes;
      filters;
      rewritings;
      covers;
      completeness;
      stats =
        {
          num_views = List.length views;
          num_view_classes = List.length view_classes;
          num_view_tuples = List.length view_tuples;
          num_representative_tuples = List.length reps;
        };
    }
  with
  | r -> r
  | exception Vplan_error.Error e when Vplan_error.is_resource e -> fallback e

let gmrs ?budget ?view_classes ?max_covers ?(domains = 1) ~query ~views () =
  run ~budget ~view_classes ~domains ~query ~views
    ~covers_of:(fun ~budget ~universe sets ->
      Set_cover.minimum_covers_anytime ?budget ?max_results:max_covers ~universe sets)

let default_max_results = 10_000

let all_minimal ?budget ?view_classes ?(domains = 1) ?(max_results = default_max_results)
    ~query ~views () =
  run ~budget ~view_classes ~domains ~query ~views
    ~covers_of:(fun ~budget ~universe sets ->
      Set_cover.irredundant_covers_anytime ?budget ~max_results ~universe sets)

let has_rewriting ~query ~views =
  let qm, _, _, _, reps =
    prepare ~budget:None ~view_classes:None ~domains:1 ~query ~views
  in
  let universe = (1 lsl List.length qm.Query.body) - 1 in
  let union = List.fold_left (fun acc (_, core) -> acc lor core.Tuple_core.mask) 0 reps in
  union land universe = universe
