(* QCheck generators for random conjunctive queries, view sets and
   database instances.  Everything is kept small: containment is
   NP-complete and the properties run hundreds of cases. *)

open Vplan
module Gen = QCheck2.Gen

let pred_pool = [ ("p", 2); ("r", 2); ("s", 1) ]
let var_pool = [ "X0"; "X1"; "X2"; "X3" ]
let const_pool = [ Term.Str "c"; Term.Str "d" ]

let gen_term =
  Gen.frequency
    [
      (7, Gen.map (fun x -> Term.Var x) (Gen.oneofl var_pool));
      (3, Gen.map (fun c -> Term.Cst c) (Gen.oneofl const_pool));
    ]

let gen_atom =
  let open Gen in
  let* pred, arity = oneofl pred_pool in
  let* args = list_repeat arity gen_term in
  return (Atom.make pred args)

let gen_body ~max_atoms =
  let open Gen in
  let* n = int_range 1 max_atoms in
  list_repeat n gen_atom

(* A random sub-sequence of a list (each element kept with probability
   1/2). *)
let gen_subset l =
  let open Gen in
  List.fold_right
    (fun x acc ->
      let* keep = bool in
      let* rest = acc in
      return (if keep then x :: rest else rest))
    l (return [])

(* Head: a random sub-sequence of the body's variables (possibly empty —
   a Boolean query). *)
let gen_query_with ~pred ~max_atoms =
  let open Gen in
  let* body = gen_body ~max_atoms in
  let vars = List.concat_map Atom.vars body |> List.sort_uniq String.compare in
  let* chosen = gen_subset vars in
  let head = Atom.make pred (List.map (fun x -> Term.Var x) chosen) in
  return (Query.make_exn head body)

let gen_query = gen_query_with ~pred:"q" ~max_atoms:3

(* A view set: distinct names v0, v1, ... *)
let gen_views ~max_views ~max_atoms =
  let open Gen in
  let* n = int_range 1 max_views in
  let rec build i acc =
    if i >= n then return (List.rev acc)
    else
      let* v = gen_query_with ~pred:("v" ^ string_of_int i) ~max_atoms in
      build (i + 1) (v :: acc)
  in
  build 0 []

(* A database over the predicate pool. *)
let gen_database =
  let open Gen in
  let gen_tuple arity = list_repeat arity (map (fun i -> Term.Int i) (int_range 0 3)) in
  let gen_relation (pred, arity) =
    let* n = int_range 0 8 in
    let* tuples = list_repeat n (gen_tuple arity) in
    return (pred, Relation.of_tuples arity tuples)
  in
  let* relations = flatten_l (List.map gen_relation pred_pool) in
  return
    (List.fold_left
       (fun db (pred, r) -> Database.add_relation pred r db)
       Database.empty relations)

(* Printers for counterexamples. *)
let print_query = Query.to_string
let print_views views = String.concat " | " (List.map Query.to_string views)

let print_instance (q, views) = print_query q ^ " || " ^ print_views views

let print_with_db (q, views, db) =
  print_instance (q, views) ^ " || db size " ^ string_of_int (Database.total_size db)

(* Instances for the wire renderer.  Caller variables are named like the
   canonical labels ("V0", "V1", "V10" beside "V1"), so a renderer that
   confused a caller name with a canonical one, or one label with a
   prefix of another, shows.  Three shapes: a small random query with
   [Int] and [Str] constants, repeated variables and head constants; a
   chain whose 11-13 variables are all distinguished; and a chain with
   more than 24 existential variables, which canonicalization refuses
   (uncacheable). *)
let label_like n = List.init n (fun i -> "V" ^ string_of_int i) @ [ "X0"; "V01" ]

let var x = Term.Var x
let xvar i = var ("X" ^ string_of_int i)

(* [x0, x1], [x1, x2], ..., [x(n-1), xn] *)
let chain pred n = List.init n (fun i -> Atom.make pred [ xvar i; xvar (i + 1) ])

(* [q] with its variables renamed to a random choice of [names]. *)
let gen_named names (q : Query.t) =
  let open Gen in
  let+ names = shuffle_l names in
  let vars = Query.vars q in
  let picked = List.filteri (fun i _ -> i < List.length vars) names in
  Query.apply (Subst.of_list (List.map2 (fun x n -> (x, var n)) vars picked)) q

let edge_view name pred =
  Query.make_exn (Atom.make name [ var "A"; var "B" ]) [ Atom.make pred [ var "A"; var "B" ] ]

let gen_wire_instance =
  let open Gen in
  let small =
    let* query = gen_query in
    let* views = gen_views ~max_views:3 ~max_atoms:2 in
    let* d_is_int = bool in
    let* head_consts =
      list_size (int_range 0 2) (oneofl [ Term.Cst (Term.Int 7); Term.Cst (Term.Str "c") ])
    in
    let int_d = function Term.Cst (Term.Str "d") when d_is_int -> Term.Cst (Term.Int 1) | t -> t in
    let body =
      List.map
        (fun (a : Atom.t) -> Atom.make a.Atom.pred (List.map int_d a.Atom.args))
        query.Query.body
    in
    let head = Atom.make "q" (query.Query.head.Atom.args @ head_consts) in
    let+ query = gen_named (label_like 11) (Query.make_exn head body) in
    (query, views)
  in
  let wide =
    let* n = int_range 10 12 in
    let pair =
      Query.make_exn
        (Atom.make "v1" [ var "A"; var "B"; var "C" ])
        [ Atom.make "r" [ var "A"; var "B" ]; Atom.make "r" [ var "B"; var "C" ] ]
    in
    let all_distinguished = Query.make_exn (Atom.make "q" (List.init (n + 1) xvar)) (chain "r" n) in
    let+ query = gen_named (label_like 14) all_distinguished in
    (query, [ edge_view "v0" "r"; pair ])
  in
  let uncacheable =
    let* n = int_range 26 28 in
    let head = Atom.make "q" [ xvar 0; Term.Cst (Term.Int 5); xvar n ] in
    let+ query = gen_named (label_like 30) (Query.make_exn head (chain "p" n)) in
    (query, [ edge_view "v0" "p" ])
  in
  frequency [ (8, small); (1, wide); (1, uncacheable) ]

(* Instances with many rewritings: every view is a nonempty
   sub-sequence of the query's body, exporting its variables except,
   now and then, one, so several covers exist and share view tuples. *)
let gen_covered_instance =
  let open Gen in
  let* query = gen_query_with ~pred:"q" ~max_atoms:4 in
  let* n = int_range 2 4 in
  let gen_view i =
    let* body = gen_subset query.Query.body in
    let* first = oneofl query.Query.body in
    let body = if body = [] then [ first ] else body in
    let vars = List.concat_map Atom.vars body |> List.sort_uniq String.compare in
    let* hidden =
      if vars = [] then return []
      else frequency [ (3, return []); (1, map (fun x -> [ x ]) (oneofl vars)) ]
    in
    let head = List.filter (fun x -> not (List.mem x hidden)) vars in
    let head = if head = [] then vars else head in
    return
      (Query.make_exn (Atom.make ("v" ^ string_of_int i) (List.map var head)) body)
  in
  let+ views = flatten_l (List.init n gen_view) in
  (query, views)

