open Vplan_cq

(* [t] resolved through the (triangular) unifier, its representative
   normalized: constants win, then query variables, then the view
   variable itself.  [sigma] may bind view variables to view variables;
   [query_vars] identifies which names belong to the query. *)
let resolve_class sigma ~query_vars t =
  let r = Unify.resolve sigma t in
  match r with
  | Term.Cst _ -> r
  | Term.Var x when Names.Sset.mem x query_vars -> r
  | Term.Var x ->
      (* Prefer a query variable of the same unification class: another
         variable resolving to the same representative. *)
      let preferred =
        List.find_map
          (fun (y, _) ->
            if Names.Sset.mem y query_vars && Term.equal (Unify.resolve sigma (Term.Var y)) r
            then Some (Term.Var y)
            else None)
          (Subst.bindings sigma)
      in
      (match preferred with Some q -> q | None -> Term.Var x)

let maps_to_head_var sigma ~(view : Query.t) x =
  match Unify.resolve sigma (Term.Var x) with
  | Term.Cst _ -> false
  | Term.Var r ->
      Names.Sset.exists
        (fun a ->
          match Unify.resolve sigma (Term.Var a) with
          | Term.Var r' -> String.equal r r'
          | Term.Cst _ -> false)
        (Atom.var_set view.Query.head)

let existentials_unspecialized sigma ~(view : Query.t) =
  let head_vars = Atom.var_set view.Query.head in
  let view_vars = Query.vars view in
  let existentials = List.filter (fun v -> not (Names.Sset.mem v head_vars)) view_vars in
  List.for_all
    (fun e ->
      match Unify.resolve sigma (Term.Var e) with
      | Term.Cst _ -> false
      | Term.Var r ->
          List.for_all
            (fun v ->
              String.equal v e
              ||
              match Unify.resolve sigma (Term.Var v) with
              | Term.Var r' -> not (String.equal r r')
              | Term.Cst _ -> true)
            view_vars)
    existentials

let head_atom ~sigma ~query_vars ~used (view : Query.t) =
  let used = ref used in
  let fresh_for = Hashtbl.create 8 in
  let freshen x =
    match Hashtbl.find_opt fresh_for x with
    | Some v -> v
    | None ->
        let name = Names.fresh ~used:!used ("F" ^ x) in
        used := Names.Sset.add name !used;
        let v = Term.Var name in
        Hashtbl.add fresh_for x v;
        v
  in
  let args =
    List.map
      (fun arg ->
        match resolve_class sigma ~query_vars arg with
        | Term.Cst _ as c -> c
        | Term.Var x as v -> if Names.Sset.mem x query_vars then v else freshen x)
      view.Query.head.Atom.args
  in
  (Atom.make view.Query.head.Atom.pred args, !used)
