open Vplan_cq
open Vplan_relational

type transformed = {
  program : Program.t;
  seeds : Database.t;
  answer_atom : Atom.t;
}

let adornment_of_atom ~bound (a : Atom.t) =
  String.concat ""
    (List.map
       (function
         | Term.Cst _ -> "b"
         | Term.Var x -> if Names.Sset.mem x bound then "b" else "f")
       a.args)

let adorned_name pred adornment = pred ^ "#" ^ adornment
let magic_name pred adornment = "m#" ^ pred ^ "#" ^ adornment

let bound_args adornment (a : Atom.t) =
  List.filteri (fun i _ -> adornment.[i] = 'b') a.args

(* Transform one rule for one head adornment, collecting adorned +
   magic rules and the set of (pred, adornment) pairs still to process. *)
let transform_rule ~idb ~adornment (r : Query.t) =
  let head_bound =
    List.filteri (fun i _ -> adornment.[i] = 'b') r.head.Atom.args
    |> List.filter_map Term.var_name
    |> Names.sset_of_list
  in
  let magic_head_atom = Atom.make (magic_name r.head.Atom.pred adornment) (bound_args adornment r.head) in
  let rec walk bound prefix_adorned new_rules todo = function
    | [] -> (List.rev prefix_adorned, new_rules, todo)
    | (g : Atom.t) :: rest ->
        if Names.Sset.mem g.pred idb then begin
          let beta = adornment_of_atom ~bound g in
          let adorned_g = Atom.make (adorned_name g.pred beta) g.args in
          let magic_rule =
            (* safe by construction: a bound argument's variables occur in
               the head's magic atom or in the processed prefix *)
            match
              Query.make
                (Atom.make (magic_name g.pred beta) (bound_args beta g))
                (magic_head_atom :: List.rev prefix_adorned)
            with
            | Ok rule -> rule
            | Error e -> failwith ("Magic.transform: unsafe magic rule: " ^ e)
          in
          let new_rules = magic_rule :: new_rules in
          walk
            (Names.Sset.union bound (Atom.var_set g))
            (adorned_g :: prefix_adorned) new_rules
            ((g.pred, beta) :: todo)
            rest
        end
        else
          walk (Names.Sset.union bound (Atom.var_set g)) (g :: prefix_adorned) new_rules todo
            rest
  in
  let body_adorned, magic_rules, todo =
    walk head_bound [] [] [] r.body
  in
  let adorned_head = Atom.make (adorned_name r.head.Atom.pred adornment) r.head.Atom.args in
  let main_rule =
    match Query.make adorned_head (magic_head_atom :: body_adorned) with
    | Ok rule -> rule
    | Error e -> failwith ("Magic.transform: unsafe adorned rule: " ^ e)
  in
  (main_rule :: magic_rules, todo)

let transform program ~query:(q : Atom.t) =
  let idb = Program.idb_predicates program in
  if not (Names.Sset.mem q.pred idb) then
    Error (Printf.sprintf "query predicate %s is not defined by the program" q.pred)
  else begin
    let q_adornment = adornment_of_atom ~bound:Names.Sset.empty q in
    let processed = Hashtbl.create 16 in
    let out_rules = ref [] in
    let rec process = function
      | [] -> ()
      | (pred, adornment) :: rest ->
          if Hashtbl.mem processed (pred, adornment) then process rest
          else begin
            Hashtbl.add processed (pred, adornment) ();
            let todo =
              List.fold_left
                (fun acc (r : Query.t) ->
                  if String.equal r.head.Atom.pred pred then begin
                    let rules, todo = transform_rule ~idb ~adornment r in
                    out_rules := rules @ !out_rules;
                    todo @ acc
                  end
                  else acc)
                [] (Program.rules program)
            in
            process (todo @ rest)
          end
    in
    process [ (q.pred, q_adornment) ];
    let seed_tuple =
      List.filter_map (function Term.Cst c -> Some c | Term.Var _ -> None) q.args
    in
    let seeds =
      Database.add_fact (magic_name q.pred q_adornment) seed_tuple Database.empty
    in
    match Program.make (List.rev !out_rules) with
    | Error e -> Error e
    | Ok program ->
        Ok
          {
            program;
            seeds;
            answer_atom = Atom.make (adorned_name q.pred q_adornment) q.args;
          }
  end

let answers ?max_rounds program edb ~query =
  match transform program ~query with
  | Error e -> invalid_arg ("Magic.answers: " ^ e)
  | Ok { program; seeds; answer_atom } ->
      (* magic predicates are reserved spellings: no EDB relation has one *)
      let edb =
        List.fold_left
          (fun db pred -> Database.add_relation pred (Database.find_exn pred seeds) db)
          edb (Database.predicates seeds)
      in
      (* the answer atom has the query's arguments: it reads as the query *)
      Seminaive.query ?max_rounds program edb (Query.make_exn query [ answer_atom ])
