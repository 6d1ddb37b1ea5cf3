type t = Term.t Names.Smap.t

let empty = Names.Smap.empty
let singleton x t = Names.Smap.singleton x t
let of_list l = List.fold_left (fun m (x, t) -> Names.Smap.add x t m) empty l
let bindings = Names.Smap.bindings
let cardinal = Names.Smap.cardinal
let find x s = Names.Smap.find_opt x s
let mem x s = Names.Smap.mem x s

let extend x t s =
  match Names.Smap.find_opt x s with
  | None -> Some (Names.Smap.add x t s)
  | Some existing -> if Term.equal existing t then Some s else None

let bind x t s =
  match extend x t s with
  | Some s -> s
  | None -> invalid_arg ("Subst.bind: conflicting binding for " ^ x)

let apply_term s = function
  | Term.Cst _ as c -> c
  | Term.Var x as v -> ( match find x s with Some t -> t | None -> v)

let unify_term s pattern target =
  match pattern with
  | Term.Cst c -> (
      match target with
      | Term.Cst c' when Term.equal_const c c' -> Some s
      | Term.Cst _ | Term.Var _ -> None)
  | Term.Var x -> extend x target s

let is_injective_on s vars =
  let rec loop seen = function
    | [] -> true
    | x :: rest -> (
        match find x s with
        | None -> loop seen rest
        | Some t -> (not (Term.Set.mem t seen)) && loop (Term.Set.add t seen) rest)
  in
  loop Term.Set.empty (List.sort_uniq String.compare vars)

let equal s1 s2 = Names.Smap.equal Term.equal s1 s2
