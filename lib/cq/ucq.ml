type t = { disjuncts : Query.t list }

let validate = function
  | [] -> Error "a union of conjunctive queries needs at least one disjunct"
  | (first : Query.t) :: rest ->
      let pred = first.head.Atom.pred and arity = Atom.arity first.head in
      if
        List.for_all
          (fun (q : Query.t) ->
            String.equal q.head.Atom.pred pred && Atom.arity q.head = arity)
          rest
      then Ok ()
      else Error "disjuncts must share the head predicate and arity"

let make disjuncts =
  match validate disjuncts with Ok () -> Ok { disjuncts } | Error e -> Error e

let make_exn disjuncts =
  match make disjuncts with Ok u -> u | Error e -> invalid_arg ("Ucq.make_exn: " ^ e)

let disjuncts u = u.disjuncts

let head_arity u =
  match u.disjuncts with q :: _ -> Atom.arity q.Query.head | [] -> assert false

let of_query q = { disjuncts = [ q ] }
let size u = List.fold_left (fun acc (q : Query.t) -> acc + List.length q.body) 0 u.disjuncts

let pp ppf u =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf "@.")
    Query.pp ppf u.disjuncts
