open Vplan_cq

(* Interned, array-stored image of a Database.t with lazily built hash
   indexes.  Constants are mapped to dense integer ids; each relation's
   tuples become int arrays; an index for a (predicate, bound-position
   mask) pair maps the projection of a tuple onto the bound positions to
   the list of matching tuple numbers.  Indexes are built on first use by
   [answers] and cached, so evaluating many queries against the same
   database (the view-tuple computation evaluates up to 1000 view bodies
   against one canonical database) pays each index once.

   Index construction is guarded by a mutex so that [answers] may be
   called concurrently from several domains (the parallel view fan-out);
   a bucket table is never mutated after it is published. *)

type pred_data = {
  arity : int;
  tuples : int array array;  (* tuples.(i).(pos) = interned constant *)
  indexes : (int, (int array, int list) Hashtbl.t) Hashtbl.t;
      (* bound-position mask -> key (values at bound positions, ascending
         position order) -> tuple numbers *)
}

type t = {
  db : Database.t;
  const_ids : (Term.const, int) Hashtbl.t;
  consts : Term.const array;  (* id -> constant *)
  preds : (string, pred_data) Hashtbl.t;
  lock : Mutex.t;
}

let of_database db =
  let const_ids = Hashtbl.create 256 in
  let rev_consts = ref [] in
  let n_consts = ref 0 in
  let intern c =
    match Hashtbl.find_opt const_ids c with
    | Some id -> id
    | None ->
        let id = !n_consts in
        Hashtbl.add const_ids c id;
        rev_consts := c :: !rev_consts;
        incr n_consts;
        id
  in
  let preds = Hashtbl.create 16 in
  List.iter
    (fun name ->
      let r = Database.find_exn name db in
      let tuples =
        Relation.tuples r
        |> List.map (fun tuple -> Array.of_list (List.map intern tuple))
        |> Array.of_list
      in
      Hashtbl.add preds name
        { arity = Relation.arity r; tuples; indexes = Hashtbl.create 4 })
    (Database.predicates db);
  {
    db;
    const_ids;
    consts = Array.of_list (List.rev !rev_consts);
    preds;
    lock = Mutex.create ();
  }

(* ------------------------------------------------------------------ *)
(* Index construction                                                  *)

let build_index pd mask =
  let positions =
    List.filter (fun pos -> mask land (1 lsl pos) <> 0) (List.init pd.arity Fun.id)
    |> Array.of_list
  in
  let table = Hashtbl.create (max 16 (Array.length pd.tuples)) in
  Array.iteri
    (fun i tuple ->
      let key = Array.map (fun pos -> tuple.(pos)) positions in
      let existing = match Hashtbl.find_opt table key with Some l -> l | None -> [] in
      Hashtbl.replace table key (i :: existing))
    pd.tuples;
  table

let index_for t pd mask =
  Mutex.lock t.lock;
  let table =
    match Hashtbl.find_opt pd.indexes mask with
    | Some table -> table
    | None ->
        let table = build_index pd mask in
        Hashtbl.add pd.indexes mask table;
        table
  in
  Mutex.unlock t.lock;
  table

(* ------------------------------------------------------------------ *)
(* Query compilation                                                   *)

type carg =
  | Const of int  (* interned constant *)
  | Var of int  (* variable number *)
  | Unmatchable  (* constant absent from the database: no tuple matches *)

type catom = {
  pred : string;
  args : carg array;
  data : pred_data option;  (* None when the predicate has no relation *)
}

let compile_atom t var_id (a : Atom.t) =
  let args =
    Array.of_list
      (List.map
         (function
           | Term.Cst c -> (
               match Hashtbl.find_opt t.const_ids c with
               | Some id -> Const id
               | None -> Unmatchable)
           | Term.Var x -> Var (var_id x))
         a.Atom.args)
  in
  let data =
    match Hashtbl.find_opt t.preds a.pred with
    | Some pd when pd.arity = Array.length args -> Some pd
    | Some _ | None -> None
  in
  { pred = a.pred; args; data }

(* Selectivity-ordered scheduling: repeatedly pick the atom with the most
   bound arguments (constants or variables bound by already-scheduled
   atoms), tie-breaking on smaller relation, then on original position —
   a static greedy order, deterministic by construction. *)
let schedule atoms =
  let n = Array.length atoms in
  let bound_vars = Hashtbl.create 16 in
  let taken = Array.make n false in
  let bound_count (ca : catom) =
    Array.fold_left
      (fun acc arg ->
        match arg with
        | Const _ | Unmatchable -> acc + 1
        | Var v -> if Hashtbl.mem bound_vars v then acc + 1 else acc)
      0 ca.args
  in
  let cardinality ca =
    match ca.data with Some pd -> Array.length pd.tuples | None -> 0
  in
  List.init n (fun _ ->
      let best = ref (-1) and best_score = ref (0, 0, 0) in
      for i = 0 to n - 1 do
        if not taken.(i) then begin
          let score = (-bound_count atoms.(i), cardinality atoms.(i), i) in
          if !best < 0 || score < !best_score then begin
            best := i;
            best_score := score
          end
        end
      done;
      taken.(!best) <- true;
      Array.iter
        (function Var v -> Hashtbl.replace bound_vars v () | Const _ | Unmatchable -> ())
        atoms.(!best).args;
      atoms.(!best))

(* ------------------------------------------------------------------ *)
(* Join                                                                *)

(* Environments are int arrays indexed by variable number, -1 = unbound.
   All environments alive at a given join step bind exactly the variables
   of the atoms already processed, so the bound-position mask of the next
   atom is computed once per step, not once per environment — and no two
   environments can collapse into one, which is why deduplication can wait
   until projection time. *)

let unbound = -1

let step t (ca : catom) envs =
  match (ca.data, envs) with
  | None, _ | _, [] -> []
  | Some pd, _ ->
      let arity = Array.length ca.args in
      if Array.exists (function Unmatchable -> true | _ -> false) ca.args then []
      else begin
        let sample = match envs with e :: _ -> e | [] -> [||] in
        let mask = ref 0 in
        for pos = 0 to arity - 1 do
          match ca.args.(pos) with
          | Const _ -> mask := !mask lor (1 lsl pos)
          | Var v -> if sample.(v) <> unbound then mask := !mask lor (1 lsl pos)
          | Unmatchable -> ()
        done;
        let mask = !mask in
        let bound_positions =
          List.filter (fun pos -> mask land (1 lsl pos) <> 0) (List.init arity Fun.id)
          |> Array.of_list
        in
        let extend env tuple acc =
          (* bound positions already match via the index key; bind the
             free positions, checking consistency of repeated variables *)
          let env' = ref env and ok = ref true in
          for pos = 0 to arity - 1 do
            if !ok && mask land (1 lsl pos) = 0 then
              match ca.args.(pos) with
              | Var v ->
                  let bound = !env'.(v) in
                  if bound = unbound then begin
                    if !env' == env then env' := Array.copy env;
                    !env'.(v) <- tuple.(pos)
                  end
                  else if bound <> tuple.(pos) then ok := false
              | Const _ | Unmatchable -> ()
          done;
          if !ok then !env' :: acc else acc
        in
        if mask = 0 then
          (* no bound position: scan the whole relation *)
          List.concat_map
            (fun env ->
              Array.fold_left (fun acc tuple -> extend env tuple acc) [] pd.tuples
              |> List.rev)
            envs
        else begin
          let table = index_for t pd mask in
          List.concat_map
            (fun env ->
              let key =
                Array.map
                  (fun pos ->
                    match ca.args.(pos) with
                    | Const id -> id
                    | Var v -> env.(v)
                    | Unmatchable -> assert false)
                  bound_positions
              in
              match Hashtbl.find_opt table key with
              | None -> []
              | Some tuple_ids ->
                  List.fold_left
                    (fun acc i -> extend env pd.tuples.(i) acc)
                    [] tuple_ids)
            envs
        end
      end

let answers t (q : Query.t) =
  let var_ids = Hashtbl.create 16 in
  let n_vars = ref 0 in
  let var_id x =
    match Hashtbl.find_opt var_ids x with
    | Some v -> v
    | None ->
        let v = !n_vars in
        Hashtbl.add var_ids x v;
        incr n_vars;
        v
  in
  let body = Array.of_list (List.map (compile_atom t var_id) q.Query.body) in
  (* head variables are safe (appear in the body), so every variable the
     projection needs already has an id after compiling the body *)
  let ordered = schedule body in
  let envs = List.fold_left (fun envs ca -> step t ca envs) [ Array.make !n_vars unbound ] ordered in
  let head = q.Query.head in
  let tuples =
    List.map
      (fun env ->
        List.map
          (function
            | Term.Cst c -> c
            | Term.Var x -> t.consts.(env.(Hashtbl.find var_ids x)))
          head.Atom.args)
      envs
  in
  Relation.of_tuples (Atom.arity head) tuples
