open Vplan_cq
open Vplan_relational
open Vplan_exec
module Budget = Vplan_core.Budget
module Vplan_error = Vplan_core.Vplan_error

(* The round cap and an optional shared budget are both checked at the
   head of every fixpoint round: a non-terminating (or merely huge)
   recursion stops with a typed resource error instead of an opaque
   [Failure], and cancellation from another domain lands between rounds. *)
let round_check ?budget ~max_rounds round =
  if round > max_rounds then
    raise (Vplan_error.Error (Step_limit { limit = max_rounds }));
  Budget.tick budget

(* Semi-naive: each rule with k IDB body atoms yields k delta variants;
   variant i reads atom i from the delta relations and the other atoms
   from the full relations.  Delta relations sit in the round's image
   under a reserved name. *)
let delta_name pred = "\x01delta:" ^ pred

let delta_variants ~idb (r : Query.t) =
  let rec variants prefix = function
    | [] -> []
    | (a : Atom.t) :: rest ->
        let this =
          if Names.Sset.mem a.pred idb then
            [ Query.make_exn r.head
                (List.rev_append prefix (Atom.make (delta_name a.pred) a.args :: rest)) ]
          else []
        in
        this @ variants (a :: prefix) rest
  in
  variants [] r.body

(* An IDB relation as int rows: a buffer that only grows, so the
   [Interned.rel] a round reads shares it with the later, longer ones,
   and the set of its rows for the known-fact check. *)
type table = {
  arity : int;
  mutable rows : int;
  mutable data : int array;
  known : (int array, unit) Hashtbl.t;
}

let rel t = { Interned.arity = t.arity; rows = t.rows; data = t.data }

let append t (r : Interned.rel) =
  let used = t.rows * t.arity and extra = r.rows * r.arity in
  if used + extra > Array.length t.data then begin
    let data = Array.make (max (used + extra) (2 * Array.length t.data)) 0 in
    Array.blit t.data 0 data 0 used;
    t.data <- data
  end;
  Array.blit r.data 0 t.data used extra;
  t.rows <- t.rows + r.rows

(* The rows of [r] that [t] does not know yet, each once, marked known:
   the fresh facts of one rule variant. *)
let fresh t (r : Interned.rel) acc =
  let acc = ref acc and probe = Array.make r.arity 0 in
  for row = 0 to r.rows - 1 do
    Array.blit r.data (row * r.arity) probe 0 r.arity;
    if not (Hashtbl.mem t.known probe) then begin
      let cells = Array.copy probe in
      Hashtbl.add t.known cells ();
      acc := cells :: !acc
    end
  done;
  !acc

let consts_of program =
  List.concat_map
    (fun (r : Query.t) ->
      List.concat_map
        (fun (a : Atom.t) ->
          List.filter_map (function Term.Cst c -> Some c | Term.Var _ -> None) a.args)
        (r.head :: r.body))
    (Program.rules program)

(* The EDB is interned once, its dictionary holding every constant of
   the program, so derived rows are codes of that one image.  Each IDB
   relation is a [table] of int rows carried across rounds; a round's
   image is the EDB image with the full and delta relations swapped in,
   and every rule body is one [Exec.rows] over it.  The budget is ticked
   per round only.  Returns the EDB image with the fixpoint's IDB
   relations swapped in. *)
let fixpoint ?budget ~max_rounds program edb =
  let idb = Program.idb_predicates program in
  let rules = Program.rules program in
  let img = Interned.of_database ~consts:(consts_of program) edb in
  let code c = Option.get (Interned.const_id img c) in
  let tables = Hashtbl.create 16 in
  List.iter
    (fun (r : Query.t) ->
      let pred = r.head.Atom.pred and arity = Atom.arity r.head in
      if not (Hashtbl.mem tables pred) then begin
        let t = { arity; rows = 0; data = [||]; known = Hashtbl.create 64 } in
        (* EDB facts of an IDB predicate are known from the start *)
        (match Interned.find img pred with
        | Some r when r.Interned.arity = arity ->
            append t r;
            ignore (fresh t r [])
        | _ -> ());
        Hashtbl.add tables pred t
      end)
    rules;
  let variants = List.concat_map (delta_variants ~idb) rules in
  let full () = Hashtbl.fold (fun pred t acc -> (pred, rel t) :: acc) tables [] in
  (* the fresh facts [rules] derive over [img], per predicate *)
  let derive img rules =
    let found = Hashtbl.create 16 in
    List.iter
      (fun (r : Query.t) ->
        let pred = r.head.Atom.pred in
        let t = Hashtbl.find tables pred in
        let rows = Option.value ~default:[] (Hashtbl.find_opt found pred) in
        Hashtbl.replace found pred (fresh t (Exec.rows ~code img r) rows))
      rules;
    Hashtbl.fold
      (fun pred rows acc ->
        if rows = [] then acc
        else
          let t = Hashtbl.find tables pred in
          let rows = List.rev rows in
          ( pred,
            { Interned.arity = t.arity; rows = List.length rows; data = Array.concat rows } )
          :: acc)
      found []
  in
  let rec loop delta round =
    round_check ?budget ~max_rounds round;
    if delta <> [] then begin
      (* merge the delta first: non-delta body positions must see the
         complete current relations, or derivations needing two new
         facts at different positions would be missed *)
      List.iter (fun (pred, r) -> append (Hashtbl.find tables pred) r) delta;
      let round_img =
        Interned.with_relations img
          (full () @ List.map (fun (pred, r) -> (delta_name pred, r)) delta)
      in
      loop (derive round_img variants) (round + 1)
    end
  in
  (* round 0: plain evaluation of every rule against the EDB *)
  loop (derive (Interned.with_relations img (full ())) rules) 1;
  Interned.with_relations img (full ())

let evaluate ?budget ?(max_rounds = 10_000) program edb =
  let img = fixpoint ?budget ~max_rounds program edb in
  Names.Sset.fold
    (fun pred db ->
      match Interned.find img pred with
      | Some r when r.Interned.rows > 0 ->
          Database.add_relation pred
            (Relation.of_tuples r.arity (List.init r.rows (Interned.tuple_of_row img r)))
            db
      | _ -> db)
    (Program.idb_predicates program) edb

let query ?budget ?(max_rounds = 10_000) program edb q =
  Exec.answers (fixpoint ?budget ~max_rounds program edb) q
