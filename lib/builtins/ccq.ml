open Vplan_cq
open Vplan_relational

let comparison_preds = [ "le"; "lt"; "eq" ]
let is_comparison (a : Atom.t) = List.mem a.pred comparison_preds && Atom.arity a = 2

let constr_of_atom (a : Atom.t) =
  match (a.pred, a.args) with
  | "le", [ l; r ] -> Some { Order_constraint.rel = Le; left = l; right = r }
  | "lt", [ l; r ] -> Some { Order_constraint.rel = Lt; left = l; right = r }
  | "eq", [ l; r ] -> Some { Order_constraint.rel = Eq; left = l; right = r }
  | _ -> None

let split (q : Query.t) =
  let ordinary, comparisons = List.partition (fun a -> not (is_comparison a)) q.body in
  (ordinary, List.filter_map constr_of_atom comparisons)

let ordinary_vars ordinary =
  List.fold_left (fun acc a -> Names.Sset.union acc (Atom.var_set a)) Names.Sset.empty ordinary

let validate q =
  let ordinary, comparisons = split q in
  let bound = ordinary_vars ordinary in
  let unbound =
    List.concat_map
      (fun (c : Order_constraint.constr) ->
        List.filter_map Term.var_name [ c.left; c.right ])
      comparisons
    |> List.filter (fun x -> not (Names.Sset.mem x bound))
    |> List.sort_uniq String.compare
  in
  if unbound = [] then Ok ()
  else
    Error
      ("comparison variable(s) not bound by ordinary subgoals: "
      ^ String.concat ", " unbound)

let closure_of q =
  let _, comparisons = split q in
  Order_constraint.of_list comparisons

let is_satisfiable q = match closure_of q with Ok _ -> true | Error `Unsatisfiable -> false

let answers db (q : Query.t) =
  (match validate q with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Ccq.answers: " ^ msg));
  let ordinary, comparisons = split q in
  (* every binding of the ordinary subgoals, once: validation puts each
     comparison and head variable among them *)
  let vars = Names.Sset.elements (ordinary_vars ordinary) in
  let bindings =
    Vplan_exec.Exec.answers
      (Vplan_exec.Interned.of_database db)
      (Query.make_exn (Atom.make "#ccq" (List.map (fun x -> Term.Var x) vars)) ordinary)
  in
  Relation.fold
    (fun tuple acc ->
      let env = Names.Smap.of_seq (List.to_seq (List.combine vars tuple)) in
      let ground = function Term.Cst c -> c | Term.Var x -> Names.Smap.find x env in
      let keep (c : Order_constraint.constr) =
        Order_constraint.satisfies_ground c.rel (ground c.left) (ground c.right)
      in
      if List.for_all keep comparisons then Relation.add (List.map ground q.head.Atom.args) acc
      else acc)
    bindings
    (Relation.empty (Atom.arity q.head))

(* Sound containment: q1 ⊑ q2 when (a) q1's comparisons are
   unsatisfiable (q1 is the empty query), or (b) some head-compatible
   homomorphism from q2's ordinary subgoals into q1's ordinary subgoals
   maps q2's comparisons to constraints implied by q1's closure. *)
let is_contained q1 q2 =
  match closure_of q1 with
  | Error `Unsatisfiable -> true
  | Ok closure1 -> (
      let ordinary1, _ = split q1 in
      let ordinary2, comparisons2 = split q2 in
      let q1' = Query.make_exn q1.Query.head ordinary1 in
      let q2' =
        (* keep q2's head; its comparison variables are range-restricted,
           so they occur in ordinary2 whenever q2 is valid *)
        match Query.make q2.Query.head ordinary2 with
        | Ok q -> q
        | Error _ -> q2
      in
      match Vplan_containment.Containment.mappings ~from_q:q2' ~to_q:q1' with
      | [] -> false
      | mappings ->
          List.exists
            (fun phi ->
              let image (c : Order_constraint.constr) =
                {
                  c with
                  Order_constraint.left = Subst.apply_term phi c.left;
                  right = Subst.apply_term phi c.right;
                }
              in
              Order_constraint.implies_all closure1 (List.map image comparisons2))
            mappings)

let equivalent q1 q2 = is_contained q1 q2 && is_contained q2 q1

let is_equivalent_rewriting ~views ~query p =
  match Vplan_views.Expansion.expand ~views p with
  | Error `Unsatisfiable -> false
  | Ok pexp -> equivalent pexp query
