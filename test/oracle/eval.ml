open Vplan

type env = Term.const Names.Smap.t

let empty_env = Names.Smap.empty
let env_find env x = Names.Smap.find_opt x env

let env_of_bindings l =
  List.fold_left (fun e (x, c) -> Names.Smap.add x c e) empty_env l

let match_args env args tuple =
  let bind_one acc arg value =
    match acc with
    | None -> None
    | Some env -> (
        match arg with
        | Term.Cst c -> if Term.equal_const c value then Some env else None
        | Term.Var x -> (
            match Names.Smap.find_opt x env with
            | Some c -> if Term.equal_const c value then Some env else None
            | None -> Some (Names.Smap.add x value env)))
  in
  List.fold_left2 bind_one (Some env) args tuple

let match_atom db env (a : Atom.t) =
  match Database.find a.pred db with
  | None -> []
  | Some r ->
      Relation.fold
        (fun tuple acc ->
          match match_args env a.args tuple with Some e -> e :: acc | None -> acc)
        r []

module Env_set = Set.Make (struct
  type t = env

  let compare = Names.Smap.compare Term.compare_const
end)

let dedup envs = Env_set.elements (Env_set.of_list envs)
let extend db envs atom = dedup (List.concat_map (fun e -> match_atom db e atom) envs)

let relation_size db (a : Atom.t) =
  match Database.find a.pred db with Some r -> Relation.cardinality r | None -> 0

let schedule db = Hypergraph.schedule ~size:(relation_size db)

(* Starting from the single empty environment, every environment alive
   after k join steps binds exactly the variables of the k processed
   atoms, and an environment together with an atom's pattern determines
   the matched tuple — so no two environments can collapse into one and
   the per-step dedup of [extend] would be a no-op.  Deduplication is
   therefore deferred to projection time (callers build sets from the
   result). *)
let satisfying_envs db atoms =
  List.fold_left
    (fun envs atom -> List.concat_map (fun e -> match_atom db e atom) envs)
    [ empty_env ] (schedule db atoms)

let project ~onto envs =
  dedup (List.map (fun env -> Names.Smap.filter (fun x _ -> Names.Sset.mem x onto) env) envs)

let distinct_count envs = Env_set.cardinal (Env_set.of_list envs)

let tuple_of_env env terms =
  List.map
    (function
      | Term.Cst c -> c
      | Term.Var x -> (
          match env_find env x with
          | Some c -> c
          | None -> invalid_arg ("Eval.tuple_of_env: unbound variable " ^ x)))
    terms

let answers db (q : Query.t) =
  let envs = satisfying_envs db q.body in
  let tuples = List.map (fun env -> tuple_of_env env q.head.Atom.args) envs in
  Relation.of_tuples (Atom.arity q.head) tuples

let matching_count db atom = List.length (match_atom db empty_env atom)

let answers_ucq db u =
  match List.map (answers db) (Ucq.disjuncts u) with
  | [] -> invalid_arg "Eval.answers_ucq: empty union"
  | first :: rest -> List.fold_left Relation.union first rest
