open Vplan_cq
module Containment = Vplan_containment.Containment
module Minimize = Vplan_containment.Minimize
module Metrics = Vplan_obs.Metrics

(* How much work the signature bucketing does vs. saves: one signature
   per view, one pairwise equivalence check per (view, same-bucket class
   representative) probe.  The unbucketed path would pay a compare per
   (view, class) pair instead. *)
let signatures_total = Metrics.counter "vplan_equiv_signatures_total"
let compares_total = Metrics.counter "vplan_equiv_compares_total"

let group_by ~key xs =
  (* The pairwise partition by [key] equality in one hash probe per
     element: classes in first-occurrence order, members in input
     order. *)
  let table = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun x ->
      let k = key x in
      match Hashtbl.find_opt table k with
      | Some members -> members := x :: !members
      | None ->
          let members = ref [ x ] in
          Hashtbl.add table k members;
          order := members :: !order)
    xs;
  List.rev_map (fun members -> List.rev !members) !order

let representatives groups = List.filter_map (function x :: _ -> Some x | [] -> None) groups

(* Views have distinct head predicates, so plain query equivalence would
   never hold; compare with the head predicate name erased. *)
let erase_head_pred (v : Query.t) =
  Query.make_exn (Atom.make "__view" v.head.Atom.args) v.body

(* ------------------------------------------------------------------ *)
(* Signature fingerprints                                              *)

(* A cheap canonical fingerprint, invariant under variable renaming, such
   that equal signatures are NECESSARY for view equivalence: equivalent
   queries have isomorphic minimized queries (cores are unique up to
   renaming), and the fingerprint is a function of the minimized query
   that no renaming can change.  Views are bucketed by signature and the
   expensive pairwise homomorphism checks run only within a bucket. *)
let signature ?budget (v : Query.t) =
  Metrics.incr signatures_total;
  let v = Minimize.minimize ?budget (erase_head_pred v) in
  let buf = Buffer.create 128 in
  (* head pattern: constants verbatim, variables by first occurrence *)
  let head_args = v.head.Atom.args in
  let first_occurrence x =
    let rec find i = function
      | [] -> assert false
      | Term.Var y :: _ when String.equal x y -> i
      | _ :: rest -> find (i + 1) rest
    in
    find 0 head_args
  in
  Buffer.add_string buf "h:";
  List.iter
    (fun arg ->
      match arg with
      | Term.Cst c -> Buffer.add_string buf ("c" ^ Term.const_to_string c ^ ";")
      | Term.Var x -> Buffer.add_string buf ("v" ^ string_of_int (first_occurrence x) ^ ";"))
    head_args;
  (* body predicate/arity multiset *)
  let preds =
    List.map (fun (a : Atom.t) -> a.pred ^ "/" ^ string_of_int (Atom.arity a)) v.body
    |> List.sort String.compare
  in
  Buffer.add_string buf "|b:";
  List.iter (fun p -> Buffer.add_string buf (p ^ ";")) preds;
  (* per-variable join-degree profile: for each variable, its head
     positions and its (predicate, argument position) body occurrences
     with multiplicity; the multiset of profiles, sorted *)
  let occurrences = Hashtbl.create 16 in
  let record x entry =
    let existing = match Hashtbl.find_opt occurrences x with Some l -> l | None -> [] in
    Hashtbl.replace occurrences x (entry :: existing)
  in
  List.iteri
    (fun pos arg ->
      match arg with Term.Var x -> record x ("H" ^ string_of_int pos) | Term.Cst _ -> ())
    head_args;
  List.iter
    (fun (a : Atom.t) ->
      List.iteri
        (fun pos arg ->
          match arg with
          | Term.Var x -> record x (a.pred ^ "." ^ string_of_int pos)
          | Term.Cst _ -> ())
        a.args)
    v.body;
  let profiles =
    Hashtbl.fold
      (fun _ entries acc -> String.concat "," (List.sort String.compare entries) :: acc)
      occurrences []
    |> List.sort String.compare
  in
  Buffer.add_string buf "|v:";
  List.iter (fun p -> Buffer.add_string buf (p ^ ";")) profiles;
  Buffer.contents buf

let view_equivalent ?budget v1 v2 =
  Metrics.incr compares_total;
  Containment.equivalent ?budget (erase_head_pred v1) (erase_head_pred v2)

let group_views_keyed ?budget views =
  (* Bucket views by signature; compare only against representatives of
     classes in the same bucket.  Since equal signatures are necessary
     for equivalence, the skipped cross-bucket comparisons would all
     have failed: classes, class order and member order are identical to
     pairwise grouping.  Each class carries its signature so that
     later views ({!add_to_keyed}) join the search where it left off. *)
  let table : (string, (Query.t * Query.t list ref) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let order = ref [] in
  List.iter
    (fun v ->
      let s = signature ?budget v in
      let bucket =
        match Hashtbl.find_opt table s with
        | Some b -> b
        | None ->
            let b = ref [] in
            Hashtbl.add table s b;
            b
      in
      let rec find = function
        | [] ->
            let cell = (v, ref [ v ]) in
            bucket := !bucket @ [ cell ];
            order := (s, cell) :: !order
        | (rep, members) :: rest ->
            if view_equivalent ?budget rep v then members := v :: !members else find rest
      in
      find !bucket)
    views;
  List.rev_map (fun (s, (_, members)) -> (s, List.rev !members)) !order

let add_to_keyed ?budget classes views =
  (* Same partition as regrouping [List.concat_map snd classes @ views]
     from scratch: a new view joins the first existing class whose
     signature matches and whose representative is equivalent, else opens
     a class at the end. *)
  List.fold_left
    (fun classes v ->
      let s = signature ?budget v in
      let rec insert = function
        | [] -> [ (s, [ v ]) ]
        | (s', (rep :: _ as members)) :: rest
          when String.equal s s' && view_equivalent ?budget rep v ->
            (s', members @ [ v ]) :: rest
        | cls :: rest -> cls :: insert rest
      in
      insert classes)
    classes views

let group_views ?budget views = List.map snd (group_views_keyed ?budget views)
