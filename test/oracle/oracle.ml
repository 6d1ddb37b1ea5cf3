(* Reference implementations, each the simplest form of something
   production code does faster: the backtracking evaluator, the naive
   Datalog fixpoint, comparison queries by backtracking, the cost
   models, the estimator, the canonical database, the naive GMR search,
   the exhaustive tuple-core search, pairwise grouping and the bucket
   algorithm. *)

open Vplan

(* The backtracking evaluator over boxed databases ([eval.mli]). *)
module Eval = Eval

(* The bucket algorithm, the baseline rewriting search by cartesian
   product ([bucket.mli]). *)
module Bucket = Bucket

(* The naive Datalog fixpoint, the reference for the semi-naive engine:
   every rule is evaluated by [Eval] over the whole database each round
   until a round adds nothing.  Query atoms are read off a fixpoint by
   [Eval] too: over the base for answers, over the inverse rules'
   recovered base for certain answers. *)
module Datalog = struct
  let naive program edb =
    let derive db (r : Query.t) =
      List.fold_left
        (fun db env ->
          Database.add_fact r.head.Atom.pred (Eval.tuple_of_env env r.head.Atom.args) db)
        db (Eval.satisfying_envs db r.body)
    in
    let rec loop db =
      let db' = List.fold_left derive db (Program.rules program) in
      if Database.equal db db' then db else loop db'
    in
    loop edb

  let select fixpoint (query : Atom.t) = Eval.answers fixpoint (Query.make_exn query [ query ])

  (* [select] without the answers holding a Skolem value *)
  let certain fixpoint query =
    let raw = select fixpoint query in
    Relation.fold
      (fun tuple acc ->
        if List.exists Inverse_rules.is_skolem tuple then acc else Relation.add tuple acc)
      raw
      (Relation.empty (Relation.arity raw))
end

(* Comparison queries by backtracking: every environment of the ordinary
   subgoals that satisfies each comparison, instantiated on the head. *)
module Ccq = struct
  let answers db (q : Query.t) =
    let ordinary, comparisons = Ccq.split q in
    let ground env = function
      | Term.Cst c -> c
      | Term.Var x -> Option.get (Eval.env_find env x)
    in
    let keep env =
      List.for_all
        (fun (c : Order_constraint.constr) ->
          Order_constraint.satisfies_ground c.rel (ground env c.left) (ground env c.right))
        comparisons
    in
    Eval.satisfying_envs db ordinary
    |> List.filter keep
    |> List.map (fun env -> Eval.tuple_of_env env q.head.Atom.args)
    |> Relation.of_tuples (Atom.arity q.head)
end

module M2 = struct
  (* [size(g)]: cardinality times arity (at least 1) *)
  let relation_cells db (a : Atom.t) = Eval.relation_size db a * max 1 (Atom.arity a)

  (* the tuple counts of IR_1, ..., IR_n *)
  let intermediate_sizes db order =
    let _, rev_sizes =
      List.fold_left
        (fun (envs, sizes) atom ->
          let envs = Eval.extend db envs atom in
          (envs, List.length envs :: sizes))
        ([ Eval.empty_env ], [])
        order
    in
    List.rev rev_sizes
end

module M3 = struct
  (* each step extends the environments by its (renamed) subgoal and
     projects them onto the kept variables, giving GSR_i *)
  let fold_gsrs db (plan : Vplan.M3.plan) f init =
    List.fold_left
      (fun (envs, acc) (step : Vplan.M3.step) ->
        let envs = Eval.project ~onto:step.kept (Eval.extend db envs step.evaluated) in
        (envs, f acc step envs))
      ([ Eval.empty_env ], init)
      plan

  let gsr_sizes db plan =
    List.rev (snd (fold_gsrs db plan (fun acc _ envs -> List.length envs :: acc) []))

  let answers db ~(head : Atom.t) plan =
    let envs, () = fold_gsrs db plan (fun () _ _ -> ()) () in
    let tuples = List.map (fun env -> Eval.tuple_of_env env head.Atom.args) envs in
    Relation.of_tuples (Atom.arity head) tuples

  (* the relation cells plus each GSR's tuples times its width; [None]
     once the running total reaches [bound] *)
  let cost_of_plan_bounded db ?(bound = max_int) (plan : Vplan.M3.plan) =
    let relation_costs =
      List.fold_left
        (fun acc (step : Vplan.M3.step) -> acc + M2.relation_cells db step.subgoal)
        0 plan
    in
    let total =
      List.fold_left2
        (fun acc (step : Vplan.M3.step) size ->
          acc + (size * max 1 (Names.Sset.cardinal step.kept)))
        relation_costs plan (gsr_sizes db plan)
    in
    if total < bound then Some total else None

  let cost_of_plan db plan = Option.get (cost_of_plan_bounded db plan)
end

(* The map-based System-R estimator, the oracle for [Estimate]'s coded
   profiles and for estimated M2: a profile is a cardinality and a
   string-keyed map of distinct counts, and estimated M2 costs are
   folded over it with no shared tables — canonical order by
   rendering, each subset's profile along its lowest-bit chain, the
   unpruned subset DP, and selection as the minimum by (cost,
   position).  Every result must match production bit for bit. *)
module Estimate = struct
  module E = Vplan.Estimate

  type profile = { p_card : float; p_dv : float Names.Smap.t }

  let unit_profile = { p_card = 1.; p_dv = Names.Smap.empty }
  let profile_width p = max 1 (Names.Smap.cardinal p.p_dv)
  let cap_dv card dv = Names.Smap.map (fun v -> Float.min v (Float.max card 1.)) dv

  let atom_profile t (a : Atom.t) =
    match E.find t a.pred with
    | None | Some { E.card = 0.; _ } -> { p_card = 0.; p_dv = Names.Smap.empty }
    | Some stats ->
        let column_dv i =
          if i < Array.length stats.E.distinct then stats.E.distinct.(i) else 1.
        in
        let const_selectivity i c =
          let dv = column_dv i in
          let uniform = 1. /. dv in
          match c with
          | Term.Int n when i < Array.length stats.E.hists -> (
              match stats.E.hists.(i) with
              | Some h -> Histogram.eq_fraction ~distinct:(int_of_float dv) h n
              | None -> uniform)
          | Term.Int _ | Term.Str _ -> uniform
        in
        let card = ref stats.E.card in
        let dv = ref Names.Smap.empty in
        List.iteri
          (fun i term ->
            match term with
            | Term.Cst c -> card := !card *. const_selectivity i c
            | Term.Var x -> (
                match Names.Smap.find_opt x !dv with
                | None -> dv := Names.Smap.add x (column_dv i) !dv
                | Some existing ->
                    card := !card /. Float.max existing (column_dv i);
                    dv := Names.Smap.add x (Float.min existing (column_dv i)) !dv))
          a.args;
        let card = Float.max !card 0. in
        { p_card = card; p_dv = cap_dv card !dv }

  let join_profiles left right =
    let shared = Names.Smap.filter (fun x _ -> Names.Smap.mem x right.p_dv) left.p_dv in
    let selectivity =
      Names.Smap.fold
        (fun x vl acc ->
          let vr = Names.Smap.find x right.p_dv in
          acc /. Float.max vl vr)
        shared 1.
    in
    let card = left.p_card *. right.p_card *. selectivity in
    let dv = Names.Smap.union (fun _ vl vr -> Some (Float.min vl vr)) left.p_dv right.p_dv in
    { p_card = Float.max card 0.; p_dv = cap_dv card dv }

  (* each view's statistics, estimated over [t] *)
  let view_stats t views =
    List.map
      (fun (v : Query.t) ->
        let profile =
          List.fold_left (fun p a -> join_profiles p (atom_profile t a)) unit_profile v.Query.body
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
        (v.Query.head.Atom.pred, card, distinct))
      views

  let cardinality t = function
    | [] -> Float.nan
    | a :: rest ->
        (List.fold_left (fun p b -> join_profiles p (atom_profile t b)) (atom_profile t a) rest)
          .p_card

  let canonical body =
    let atoms = Array.of_list body in
    let ids = Array.map Atom.to_string atoms in
    let perm = Array.init (Array.length atoms) Fun.id in
    Array.stable_sort (fun i j -> String.compare ids.(i) ids.(j)) perm;
    Array.map (fun i -> atoms.(i)) perm

  let relation_total t atoms =
    Array.to_list atoms
    |> List.map (fun (a : Atom.t) ->
           match E.find t a.pred with
           | Some s -> s.E.card *. float_of_int (max 1 (Atom.arity a))
           | None -> 0.)
    |> List.sort Float.compare |> List.fold_left ( +. ) 0.

  let lowest_index bit =
    let rec find k = if 1 lsl k = bit then k else find (k + 1) in
    find 0

  let rec profile_of t atoms s =
    if s = 0 then unit_profile
    else
      let bit = s land -s in
      join_profiles (profile_of t atoms (s lxor bit)) (atom_profile t atoms.(lowest_index bit))

  let cells t atoms s =
    let p = profile_of t atoms s in
    p.p_card *. float_of_int (profile_width p)

  let cost t order =
    match order with
    | [] -> 0.
    | _ ->
        let atoms = canonical order in
        let used = Array.make (Array.length atoms) false in
        let index_of a =
          let rec go i =
            if (not used.(i)) && Atom.equal atoms.(i) a then begin
              used.(i) <- true;
              i
            end
            else go (i + 1)
          in
          go 0
        in
        let _, ir =
          List.fold_left
            (fun (s, acc) a ->
              let s = s lor (1 lsl index_of a) in
              (s, acc +. cells t atoms s))
            (0, 0.) order
        in
        relation_total t atoms +. ir

  (* the unpruned subset DP: each state peels the lowest canonical index
     among its cheapest predecessors *)
  let optimal t body =
    let atoms = canonical body in
    let n = Array.length atoms in
    let full = (1 lsl n) - 1 in
    let best = Array.make (full + 1) Float.infinity and choice = Array.make (full + 1) (-1) in
    best.(0) <- 0.;
    for s = 1 to full do
      for i = 0 to n - 1 do
        if s land (1 lsl i) <> 0 && best.(s lxor (1 lsl i)) < best.(s) then begin
          best.(s) <- best.(s lxor (1 lsl i));
          choice.(s) <- i
        end
      done;
      best.(s) <- best.(s) +. cells t atoms s
    done;
    let rec rebuild s acc =
      if s = 0 then acc else rebuild (s lxor (1 lsl choice.(s))) (atoms.(choice.(s)) :: acc)
    in
    (rebuild full [], relation_total t atoms +. best.(full))

  (* the cheapest candidate, the earliest on cost ties *)
  let select t (candidates : Query.t list) =
    List.fold_left
      (fun best (p : Query.t) ->
        let order, cost = optimal t p.Query.body in
        match best with Some (_, _, c) when c <= cost -> best | _ -> Some (p, order, cost))
      None candidates
end

(* [Query.make]'s safety check as a set difference: the union of the
   body's variable sets must contain the head's.  Production code scans
   the body instead and builds sets only for the error text. *)
let query_safety head body =
  let bvars =
    List.fold_left (fun acc a -> Names.Sset.union acc (Atom.var_set a)) Names.Sset.empty body
  in
  let missing = Names.Sset.diff (Atom.var_set head) bvars in
  if Names.Sset.is_empty missing then Ok ()
  else
    Error
      (Format.asprintf "unsafe query: head variable(s) %s not in body"
         (String.concat ", " (Names.Sset.elements missing)))

(* The canonical database of a query (Section 3.3): every variable is
   frozen to a distinct constant and each body atom becomes a fact.
   Frozen constants are spelled "@x" for variable x; the parser accepts
   neither '@' in identifiers nor variables starting lower-case, so they
   cannot collide with constants of queries or views.  Applying the
   views to [D_Q] and thawing the answers is the textbook definition of
   the view tuples production code computes by matching. *)
module Canonical = struct
  type t = {
    db : Database.t;
    back : Term.t Names.Smap.t;  (* frozen spelling -> original variable *)
  }

  let frozen_term = function Term.Cst c -> c | Term.Var x -> Term.Str ("@" ^ x)

  let freeze (q : Query.t) =
    let back =
      List.fold_left
        (fun m x -> Names.Smap.add ("@" ^ x) (Term.Var x) m)
        Names.Smap.empty (Query.vars q)
    in
    let db =
      List.fold_left
        (fun db (a : Atom.t) -> Database.add_fact a.pred (List.map frozen_term a.args) db)
        Database.empty q.body
    in
    { db; back }

  let database t = t.db

  let thaw_const t c =
    match c with
    | Term.Str s -> Option.value ~default:(Term.Cst c) (Names.Smap.find_opt s t.back)
    | Term.Int _ -> Term.Cst c

  let thaw_tuple t tuple = List.map (thaw_const t) tuple

  (* [T(Q,V)] by [evaluate] over [D_Q], view by view, each view's
     answers thawed in the relation's order *)
  let view_tuples ~evaluate ~query views =
    let c = freeze query in
    List.concat_map
      (fun v ->
        List.map
          (fun tuple -> Atom.make (View.name v) (thaw_tuple c tuple))
          (Relation.tuples (evaluate c.db v)))
      views
end

(* The naive GMR search of Theorem 3.1, the oracle for CoreCover: try
   every combination of 1, 2, ... view tuples as a candidate body,
   testing expansion-equivalence with the query, and stop at the first
   size that yields rewritings.  A query with a rewriting has one with
   at most as many subgoals as the query (Levy et al. 1995), so the
   search is bounded.  Exponential in the number of view tuples: small
   instances only. *)
module Naive = struct
  let rec combinations k l =
    if k = 0 then [ [] ]
    else
      match l with
      | [] -> []
      | x :: rest ->
          List.map (fun c -> x :: c) (combinations (k - 1) rest) @ combinations k rest

  let candidate_rewriting (qm : Query.t) tuples =
    let body = List.map (fun tv -> tv.View_tuple.atom) tuples in
    match Query.make qm.head body with Ok p -> Some p | Error _ -> None

  (* the equivalent rewritings made of exactly [k] distinct view tuples *)
  let rewritings_of_size ~query ~views k =
    let qm = Minimize.minimize query in
    let tuples = View_tuple.compute ~query:qm views in
    combinations k tuples
    |> List.filter_map (candidate_rewriting qm)
    |> List.filter (Expansion.is_equivalent_rewriting ~views ~query)

  let gmrs ~query ~views =
    let qm = Minimize.minimize query in
    let bound = List.length qm.Query.body in
    let rec try_size k =
      if k > bound then []
      else
        match rewritings_of_size ~query ~views k with
        | [] -> try_size (k + 1)
        | found -> found
    in
    try_size 1
end

(* Minimizing a view set without losing query-answering power, the
   companion work the paper cites as [18] (Li-Bawa-Ullman, ICDT 2001):
   keep the views with a view tuple of nonempty tuple-core, then drop
   views greedily while an equivalent rewriting remains. *)
module View_selection = struct
  let is_answering_set ~query views = Corecover.has_rewriting ~query ~views

  let relevant_views ~query ~views =
    let qm = Minimize.minimize query in
    List.filter
      (fun view ->
        let classes = View_tuple.Classes.of_views [ view ] in
        let code, coded = View_tuple.compute_coded ~query:qm classes in
        List.exists (fun core -> not (Tuple_core.is_empty core)) (Tuple_core.cores code coded))
      views

  (* [None] when even the full set admits no rewriting *)
  let minimal_answering_set ~query ~views =
    if not (is_answering_set ~query views) then None
    else begin
      (* start from the relevant views only, then drop greedily *)
      let start =
        let relevant = relevant_views ~query ~views in
        if is_answering_set ~query relevant then relevant else views
      in
      let rec shrink kept =
        let try_drop v =
          let without = List.filter (fun v' -> v' != v) kept in
          if is_answering_set ~query without then Some without else None
        in
        match List.find_map try_drop kept with
        | Some smaller -> shrink smaller
        | None -> kept
      in
      Some (shrink start)
    end
end

(* The exhaustive tuple-core search: every include/exclude choice of the
   query subgoals, times every expansion atom an included subgoal maps
   into under Definition 4.1's constraints, filtered for the
   inclusion-maximal consistent subsets.  Production code searches
   free-variable components over integer codes; this is the reference it
   is tested against, and its mappings are the witnesses. *)
module Tuple_core = struct
  type t = {
    subgoals : Atom.t list;
    mask : int;
    mapping : Subst.t;  (* the witnessing containment mapping *)
  }

  (* The expansion of a view tuple: the view's body with head variables
     bound to the tuple's arguments and existential variables renamed
     fresh (avoiding [avoid]), with the set of those fresh variables. *)
  let expansion ~avoid (tv : View_tuple.t) =
    let avoid = Names.Sset.union avoid (Atom.var_set tv.atom) in
    let view', _ = Query.rename_apart ~avoid tv.view in
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

  (* Extend the mapping by sending subgoal [a] to expansion atom [e]:
     constants match, distinguished variables and variables of the view
     tuple map to themselves, every other variable to an existential. *)
  let constrained_unify ~query ~tv_args ~existentials subst (a : Atom.t) (e : Atom.t) =
    if (not (String.equal a.pred e.Atom.pred)) || Atom.arity a <> Atom.arity e then None
    else
      List.fold_left2
        (fun acc pat target ->
          match (acc, pat) with
          | None, _ -> None
          | Some s, Term.Cst c -> (
              match target with
              | Term.Cst c' when Term.equal_const c c' -> Some s
              | Term.Cst _ | Term.Var _ -> None)
          | Some s, Term.Var x ->
              if Query.is_distinguished query x || Names.Sset.mem x tv_args then
                if Term.equal target (Term.Var x) then Subst.extend x target s else None
              else (
                match target with
                | Term.Var y when Names.Sset.mem y existentials -> Subst.extend x target s
                | Term.Var _ | Term.Cst _ -> None))
        (Some subst) a.args e.args

  let compute_all_maximal ~query (tv : View_tuple.t) =
    let body = Array.of_list query.Query.body in
    let n = Array.length body in
    let expansion, existentials = expansion ~avoid:(Query.var_set query) tv in
    let tv_args = Atom.var_set tv.atom in
    let covered mask = List.filteri (fun i _ -> mask land (1 lsl i) <> 0) query.Query.body in
    (* one-to-one on the arguments of G *)
    let injective subst mask =
      let args =
        Term.Set.elements
          (List.fold_left (fun acc a -> Term.Set.union acc (Atom.terms a)) Term.Set.empty
             (covered mask))
      in
      let image = function
        | Term.Cst _ as c -> c
        | Term.Var x as v -> Option.value ~default:v (Subst.find x subst)
      in
      List.length (List.sort_uniq Term.compare (List.map image args)) = List.length args
    in
    (* property (3) *)
    let closed subst mask =
      List.for_all
        (fun x ->
          match Subst.find x subst with
          | Some (Term.Var y) when Names.Sset.mem y existentials ->
              List.for_all
                (fun (a : Atom.t) -> not (List.mem x (Atom.vars a)))
                (List.filteri (fun i _ -> mask land (1 lsl i) = 0) query.Query.body)
          | Some _ | None -> true)
        (Query.vars query)
    in
    let results = ref [] in
    let rec go i subst mask =
      if i = n then begin
        if injective subst mask && closed subst mask then results := (mask, subst) :: !results
      end
      else begin
        go (i + 1) subst mask;
        List.iter
          (fun e ->
            match constrained_unify ~query ~tv_args ~existentials subst body.(i) e with
            | Some subst' -> go (i + 1) subst' (mask lor (1 lsl i))
            | None -> ())
          expansion
      end
    in
    go 0 Subst.empty 0;
    let cands = !results in
    let maximal =
      List.filter
        (fun (mask, _) ->
          not (List.exists (fun (mask', _) -> mask <> mask' && mask land mask' = mask) cands))
        cands
    in
    let dedup =
      List.fold_left
        (fun acc ((mask, _) as c) -> if List.mem_assoc mask acc then acc else c :: acc)
        [] maximal
    in
    List.rev_map
      (fun (mask, subst) ->
        let vars = List.concat_map Atom.vars (covered mask) in
        let mapping =
          Subst.of_list (List.filter (fun (x, _) -> List.mem x vars) (Subst.bindings subst))
        in
        { subgoals = covered mask; mask; mapping })
      dedup

  (* the unique maximal core, or for non-minimal input the first of the
     largest *)
  let compute ~query tv =
    match compute_all_maximal ~query tv with
    | [] -> { subgoals = []; mask = 0; mapping = Subst.empty }
    | first :: rest ->
        List.fold_left
          (fun best c ->
            if List.length c.subgoals > List.length best.subgoals then c else best)
          first rest
end

(* Pairwise grouping, the oracle for [Equiv_class]: each element is
   compared with one member of every class so far ([eq] is an
   equivalence) and joins the first equal one, else opens a class at the
   end.  [group_views] is
   this over [Equiv_class.view_equivalent], with no signature buckets;
   [group ~eq:(fun a b -> key a = key b)] is what [group_by ~key]
   computes by hashing. *)
module Grouping = struct
  let group ~eq xs =
    let rec insert x = function
      | [] -> [ [ x ] ]
      | (rep :: _ as cls) :: rest when eq rep x -> (x :: cls) :: rest
      | cls :: rest -> cls :: insert x rest
    in
    List.map List.rev (List.fold_left (fun classes x -> insert x classes) [] xs)

  let group_views views = group ~eq:(fun a b -> Equiv_class.view_equivalent a b) views
end
