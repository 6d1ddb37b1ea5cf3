type t = {
  head : Atom.t;
  body : Atom.t list;
}

let occurs_in x (a : Atom.t) =
  List.exists (function Term.Var y -> String.equal x y | Term.Cst _ -> false) a.args

(* Safety scans instead of building sets: this runs once per rewriting a
   cover yields.  Only the error path builds sets, for its sorted list. *)
let make head body =
  let safe = function Term.Cst _ -> true | Term.Var x -> List.exists (occurs_in x) body in
  if List.for_all safe head.Atom.args then Ok { head; body }
  else
    let bvars =
      List.fold_left (fun acc a -> Names.Sset.union acc (Atom.var_set a)) Names.Sset.empty body
    in
    let missing = Names.Sset.diff (Atom.var_set head) bvars in
    Error
      (Format.asprintf "unsafe query: head variable(s) %s not in body"
         (String.concat ", " (Names.Sset.elements missing)))

let make_exn head body =
  match make head body with Ok q -> q | Error msg -> invalid_arg ("Query.make_exn: " ^ msg)

let with_body q body = make q.head body

let compare q1 q2 =
  match Atom.compare q1.head q2.head with
  | 0 -> List.compare Atom.compare q1.body q2.body
  | c -> c

let equal q1 q2 = compare q1 q2 = 0
let head_vars q = Atom.vars q.head

let vars q =
  let rec loop seen acc = function
    | [] -> List.rev acc
    | x :: rest ->
        if Names.Sset.mem x seen then loop seen acc rest
        else loop (Names.Sset.add x seen) (x :: acc) rest
  in
  loop Names.Sset.empty [] (List.concat_map Atom.vars (q.head :: q.body))

let var_set q = Names.sset_of_list (vars q)
let head_var_set q = Atom.var_set q.head

let existential_vars q =
  let hv = head_var_set q in
  List.filter (fun x -> not (Names.Sset.mem x hv)) (vars q)

let is_distinguished q x =
  List.exists (function Term.Var y -> String.equal x y | Term.Cst _ -> false) q.head.args

let constants q =
  List.concat_map Atom.constants (q.head :: q.body)
  |> List.sort_uniq Term.compare_const

let body_preds q =
  let rec loop seen acc = function
    | [] -> List.rev acc
    | (a : Atom.t) :: rest ->
        if Names.Sset.mem a.pred seen then loop seen acc rest
        else loop (Names.Sset.add a.pred seen) (a.pred :: acc) rest
  in
  loop Names.Sset.empty [] q.body

let apply s q = { head = Atom.apply s q.head; body = List.map (Atom.apply s) q.body }

let rename_apart ~avoid q =
  let names, _ = Names.fresh_list ~used:avoid (vars q) in
  let s = Subst.of_list (List.map2 (fun x n -> (x, Term.Var n)) (vars q) names) in
  (apply s q, s)

let dedup_body q =
  let rec loop seen acc = function
    | [] -> List.rev acc
    | a :: rest ->
        if Atom.Set.mem a seen then loop seen acc rest
        else loop (Atom.Set.add a seen) (a :: acc) rest
  in
  { q with body = loop Atom.Set.empty [] q.body }

let canonical q =
  let q = dedup_body q in
  let s =
    List.mapi (fun i x -> (x, Term.Var ("V" ^ string_of_int i))) (vars q) |> Subst.of_list
  in
  apply s q

let pp ppf q =
  Format.fprintf ppf "%a :- %a" Atom.pp q.head
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Atom.pp)
    q.body

(* [pp]'s output, built directly: it renders every rewrite request's
   cache key, where a formatter is costly. *)
let to_string q =
  let b = Buffer.create 64 in
  Atom.add_to_buffer b q.head;
  Buffer.add_string b " :- ";
  List.iteri
    (fun i a ->
      if i > 0 then Buffer.add_string b ", ";
      Atom.add_to_buffer b a)
    q.body;
  Buffer.contents b
