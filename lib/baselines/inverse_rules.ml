open Vplan_cq
open Vplan_views
open Vplan_relational

(* Skolem values are symbolic constants with a reserved prefix that the
   parser can never produce. *)
let skolem_prefix = "!sk:"

let is_skolem = function
  | Term.Str s ->
      String.length s >= String.length skolem_prefix
      && String.sub s 0 (String.length skolem_prefix) = skolem_prefix
  | Term.Int _ -> false

let render_const = function
  | Term.Int i -> string_of_int i
  | Term.Str s -> s

let skolem_const ~view_name ~existential tuple =
  Term.Str
    (Printf.sprintf "%s%s.%s(%s)" skolem_prefix view_name existential
       (String.concat "," (List.map render_const tuple)))

(* For inspection: the rule g'(...) :- v(X̄), with existential variables
   spelled as reserved "!sk" variables. *)
let invert views =
  List.concat_map
    (fun (v : Query.t) ->
      let head_vars = Atom.var_set v.head in
      let mark = function
        | Term.Cst _ as c -> c
        | Term.Var x as t ->
            if Names.Sset.mem x head_vars then t
            else Term.Var (skolem_prefix ^ View.name v ^ "." ^ x)
      in
      List.map
        (fun (g : Atom.t) -> (Atom.make g.pred (List.map mark g.args), v.head))
        v.body)
    views

let recover_base ~views view_db =
  List.fold_left
    (fun db (v : Query.t) ->
      match Database.find (View.name v) view_db with
      | None -> db
      | Some relation ->
          Relation.fold
            (fun tuple db ->
              (* bind head variables to the tuple's values; a repeated
                 head variable with conflicting values cannot come from a
                 real materialization — skip such tuples *)
              let binding =
                List.fold_left2
                  (fun acc head_arg value ->
                    match (acc, head_arg) with
                    | None, _ -> None
                    | Some m, Term.Cst c ->
                        if Term.equal_const c value then Some m else None
                    | Some m, Term.Var x -> (
                        match Names.Smap.find_opt x m with
                        | Some c when not (Term.equal_const c value) -> None
                        | Some _ -> Some m
                        | None -> Some (Names.Smap.add x value m)))
                  (Some Names.Smap.empty) v.head.Atom.args tuple
              in
              match binding with
              | None -> db
              | Some binding ->
                  List.fold_left
                    (fun db (g : Atom.t) ->
                      let value_of = function
                        | Term.Cst c -> c
                        | Term.Var x -> (
                            match Names.Smap.find_opt x binding with
                            | Some c -> c
                            | None -> skolem_const ~view_name:(View.name v) ~existential:x tuple)
                      in
                      Database.add_fact g.pred (List.map value_of g.args) db)
                    db v.body)
            relation db)
    Database.empty views

let certain_answers ~views ~query view_db =
  let base = Vplan_exec.Interned.of_database (recover_base ~views view_db) in
  let raw = Vplan_exec.Exec.answers base query in
  Relation.fold
    (fun tuple acc ->
      if List.exists is_skolem tuple then acc else Relation.add tuple acc)
    raw
    (Relation.empty (Relation.arity raw))
