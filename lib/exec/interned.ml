open Vplan_cq
open Vplan_relational

(* Columnar image of a Database.t: constants are interned to dense int
   codes once per load, and each relation's tuples live in one flat
   row-major int array.  A tuple value is two adds and a load away, with
   no per-tuple boxing — the representation the hash-join inner loops
   iterate over. *)

type rel = {
  arity : int;
  rows : int;
  data : int array;  (* data.(row * arity + col) = interned constant *)
}

type t = {
  db : Database.t;
  const_ids : (Term.const, int) Hashtbl.t;
  consts : Term.const array;  (* code -> constant *)
  rels : (string, rel) Hashtbl.t;
}

let database t = t.db
let const_id t c = Hashtbl.find_opt t.const_ids c
let const t id = t.consts.(id)
let num_consts t = Array.length t.consts
let find t name = Hashtbl.find_opt t.rels name

let get r row col = r.data.((row * r.arity) + col)

let decode consts r row = List.init r.arity (fun col -> consts.(get r row col))
let tuple_of_row t = decode t.consts

(* A growing dictionary over [const_ids]: [intern] hands out the next
   code, from [first] on, to a constant it has not seen; the second
   function lists the constants it added, by code. *)
let dictionary const_ids first =
  let rev_new = ref [] and next = ref first in
  let intern c =
    match Hashtbl.find_opt const_ids c with
    | Some id -> id
    | None ->
        let id = !next in
        Hashtbl.add const_ids c id;
        rev_new := c :: !rev_new;
        incr next;
        id
  in
  (intern, fun () -> Array.of_list (List.rev !rev_new))

(* A boxed relation's tuples as flat rows of codes. *)
let encode intern r =
  let arity = Relation.arity r in
  let rows = Relation.cardinality r in
  let data = Array.make (max 1 (rows * arity)) 0 in
  let next = ref 0 in
  Relation.iter
    (fun tuple ->
      List.iter
        (fun c ->
          data.(!next) <- intern c;
          incr next)
        tuple)
    r;
  { arity; rows; data }

let of_database db =
  let const_ids = Hashtbl.create 256 in
  let intern, consts = dictionary const_ids 0 in
  let rels = Hashtbl.create 16 in
  List.iter
    (fun name -> Hashtbl.add rels name (encode intern (Database.find_exn name db)))
    (Database.predicates db);
  { db; const_ids; consts = consts (); rels }

let derive base builds =
  let const_ids = Hashtbl.copy base.const_ids in
  let intern, added = dictionary const_ids (Array.length base.consts) in
  let built = List.map (fun (name, build) -> (name, build intern)) builds in
  let consts = Array.append base.consts (added ()) in
  (* the boxed relations are decoded from the very rows just built; the
     set they form is smaller only when a build repeated rows, and then
     (only then) the rows are re-encoded from it, once each *)
  let rels = Hashtbl.create 16 in
  let db =
    List.fold_left
      (fun db (name, r) ->
        let relation = Relation.of_tuples r.arity (List.init r.rows (decode consts r)) in
        Hashtbl.replace rels name
          (if Relation.cardinality relation = r.rows then r else encode intern relation);
        Database.add_relation name relation db)
      Database.empty built
  in
  { db; const_ids; consts; rels }
