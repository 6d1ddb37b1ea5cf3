open Vplan_cq

(* The query hypergraph of a conjunctive body: one hyperedge per atom,
   vertices are the atom's variables.  GYO reduction decides
   α-acyclicity by repeatedly removing ears — edges whose variables
   shared with any other live edge all fit inside a single live witness
   edge — and the witness pointers recorded along the way form a join
   tree whenever the reduction succeeds.  Constant-only atoms have an
   empty edge and are trivially ears; duplicate and subsumed atoms are
   ears of the edge subsuming them. *)

type tree = {
  atoms : Atom.t array;  (* body atoms in original order *)
  parent : int array;  (* witness at removal time; -1 at the root *)
  root : int;  (* last surviving edge; -1 for an empty body *)
  removal : int list;  (* ear-removal order: children before parents *)
}

type classification = Acyclic of tree | Cyclic

let classify body =
  let atoms = Array.of_list body in
  let n = Array.length atoms in
  if n = 0 then Acyclic { atoms; parent = [||]; root = -1; removal = [] }
  else begin
    let vars = Array.map Atom.var_set atoms in
    let alive = Array.make n true in
    let alive_count = ref n in
    let parent = Array.make n (-1) in
    let removal = ref [] in
    let progress = ref true in
    while !alive_count > 1 && !progress do
      progress := false;
      for i = 0 to n - 1 do
        if alive.(i) && !alive_count > 1 then begin
          (* variables of [i] occurring in some other live edge *)
          let shared =
            Names.Sset.filter
              (fun x ->
                let occurs = ref false in
                for j = 0 to n - 1 do
                  if j <> i && alive.(j) && Names.Sset.mem x vars.(j) then
                    occurs := true
                done;
                !occurs)
              vars.(i)
          in
          let witness = ref (-1) in
          for j = 0 to n - 1 do
            if
              !witness < 0 && j <> i && alive.(j)
              && Names.Sset.subset shared vars.(j)
            then witness := j
          done;
          if !witness >= 0 then begin
            alive.(i) <- false;
            decr alive_count;
            parent.(i) <- !witness;
            removal := i :: !removal;
            progress := true
          end
        end
      done
    done;
    if !alive_count = 1 then begin
      let root = ref (-1) in
      for i = n - 1 downto 0 do
        if alive.(i) then root := i
      done;
      Acyclic { atoms; parent; root = !root; removal = List.rev !removal }
    end
    else Cyclic
  end

let is_acyclic body = match classify body with Acyclic _ -> true | Cyclic -> false

(* Parents-before-children order: the root first, then the ears most
   recently removed.  Every atom after the first shares its tree-edge
   variables with an earlier atom, so joining in this order never forms
   a cross product on a connected body. *)
let join_order t =
  if t.root < 0 then [] else t.root :: List.rev t.removal

let tree_order body =
  match classify body with
  | Cyclic -> None
  | Acyclic t -> Some (List.map (fun i -> t.atoms.(i)) (join_order t))

(* Selectivity-ordered scheduling: repeatedly pick the atom with the most
   bound arguments (constants, or variables bound by an already-scheduled
   atom), tie-breaking on smaller relation, then on original position.  A
   static greedy order — reordering a join never changes the resulting
   environment set, only the intermediate sizes. *)
let schedule ~size atoms =
  let bound_args bound (a : Atom.t) =
    List.length
      (List.filter (function Term.Cst _ -> true | Term.Var x -> Names.Sset.mem x bound) a.args)
  in
  let rec pick bound acc = function
    | [] -> List.rev acc
    | first :: _ as remaining ->
        let score (i, a) = (-bound_args bound a, size a, i) in
        let i, a =
          List.fold_left (fun best c -> if score c < score best then c else best) first remaining
        in
        pick (Names.Sset.union bound (Atom.var_set a)) (a :: acc)
          (List.filter (fun (j, _) -> j <> i) remaining)
  in
  pick Names.Sset.empty [] (List.mapi (fun i a -> (i, a)) atoms)

let children t =
  let kids = Array.make (Array.length t.atoms) [] in
  (* removal is children-before-parents; fold right so each child list
     comes out in removal order *)
  List.iter
    (fun i -> if t.parent.(i) >= 0 then kids.(t.parent.(i)) <- i :: kids.(t.parent.(i)))
    (List.rev t.removal);
  kids

let pp_tree ppf t =
  if t.root < 0 then Format.fprintf ppf "(empty)"
  else begin
    let kids = children t in
    let rec pp_node indent i =
      Format.fprintf ppf "%s%a" indent Atom.pp t.atoms.(i);
      List.iter
        (fun c ->
          Format.pp_print_newline ppf ();
          pp_node (indent ^ "  ") c)
        kids.(i)
    in
    pp_node "" t.root
  end

let tree_to_string t = Format.asprintf "%a" pp_tree t
