type t = {
  pred : string;
  args : Term.t list;
}

let make pred args = { pred; args }
let arity a = List.length a.args

let compare a1 a2 =
  match String.compare a1.pred a2.pred with
  | 0 -> List.compare Term.compare a1.args a2.args
  | c -> c

let equal a1 a2 = compare a1 a2 = 0

let vars a =
  let rec loop seen acc = function
    | [] -> List.rev acc
    | Term.Cst _ :: rest -> loop seen acc rest
    | Term.Var x :: rest ->
        if Names.Sset.mem x seen then loop seen acc rest
        else loop (Names.Sset.add x seen) (x :: acc) rest
  in
  loop Names.Sset.empty [] a.args

let var_set a =
  List.fold_left
    (fun acc t -> match t with Term.Var x -> Names.Sset.add x acc | Term.Cst _ -> acc)
    Names.Sset.empty a.args
let terms a = Term.Set.of_list a.args

let constants a =
  List.filter_map (function Term.Cst c -> Some c | Term.Var _ -> None) a.args

let apply s a = { a with args = List.map (Subst.apply_term s) a.args }

let unify s pattern target =
  if String.equal pattern.pred target.pred && arity pattern = arity target then
    List.fold_left2
      (fun acc p t -> match acc with None -> None | Some s -> Subst.unify_term s p t)
      (Some s) pattern.args target.args
  else None

let pp ppf a =
  Format.fprintf ppf "%s(%a)" a.pred
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",") Term.pp)
    a.args

(* [pp]'s output, built directly: renderings are sort keys on hot paths
   (canonical atom orders, memo keys, cache keys), where a formatter is
   costly. *)
let add_term b = function
  | Term.Var x | Term.Cst (Term.Str x) -> Buffer.add_string b x
  | Term.Cst (Term.Int n) -> Buffer.add_string b (string_of_int n)

let rec add_args b = function
  | [] -> ()
  | t :: rest ->
      Buffer.add_char b ',';
      add_term b t;
      add_args b rest

let add_to_buffer b a =
  Buffer.add_string b a.pred;
  Buffer.add_char b '(';
  (match a.args with
  | [] -> ()
  | t :: rest ->
      add_term b t;
      add_args b rest);
  Buffer.add_char b ')'

let to_string a =
  let b = Buffer.create 16 in
  add_to_buffer b a;
  Buffer.contents b

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)
