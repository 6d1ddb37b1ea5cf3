open Vplan_cq
open Vplan_relational

(* Columnar image of a Database.t: constants are interned to dense int
   codes once per load, and each relation's tuples live in one flat
   row-major int array.  A tuple value is two adds and a load away, with
   no per-tuple boxing — the representation the hash-join inner loops
   iterate over, and the only form an image keeps. *)

type rel = {
  arity : int;
  rows : int;
  data : int array;  (* data.(row * arity + col) = interned constant *)
}

type t = {
  const_ids : (Term.const, int) Hashtbl.t;
  consts : Term.const array;  (* code -> constant *)
  rels : (string, rel) Hashtbl.t;
}

let const_id t c = Hashtbl.find_opt t.const_ids c
let const t id = t.consts.(id)
let find t name = Hashtbl.find_opt t.rels name
let cardinality t name = match find t name with Some r -> r.rows | None -> 0

let get r row col = r.data.((row * r.arity) + col)

let tuple_of_row t r row = List.init r.arity (fun col -> t.consts.(get r row col))

let database t =
  Hashtbl.fold
    (fun name r db ->
      Database.add_relation name
        (Relation.of_tuples r.arity (List.init r.rows (tuple_of_row t r)))
        db)
    t.rels Database.empty

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

let of_database ?(consts = []) db =
  let const_ids = Hashtbl.create 256 in
  let intern, added = dictionary const_ids 0 in
  let rels = Hashtbl.create 16 in
  List.iter
    (fun name -> Hashtbl.add rels name (encode intern (Database.find_exn name db)))
    (Database.predicates db);
  List.iter (fun c -> ignore (intern c)) consts;
  { const_ids; consts = added (); rels }

let with_relations t named =
  let rels = Hashtbl.copy t.rels in
  List.iter (fun (name, r) -> Hashtbl.replace rels name r) named;
  { t with rels }

(* [r] with each repeated row kept once, found by hashing the int rows. *)
let dedup r =
  let seen = Hashtbl.create (max 16 r.rows) in
  for row = 0 to r.rows - 1 do
    Hashtbl.replace seen (Array.sub r.data (row * r.arity) r.arity) ()
  done;
  let rows = Hashtbl.length seen in
  if rows = r.rows then r
  else { r with rows; data = Array.concat (Hashtbl.fold (fun k () acc -> k :: acc) seen []) }

let derive base builds =
  let const_ids = Hashtbl.copy base.const_ids in
  let intern, added = dictionary const_ids (Array.length base.consts) in
  let rels = Hashtbl.create 16 in
  List.iter (fun (name, build) -> Hashtbl.replace rels name (dedup (build intern))) builds;
  { const_ids; consts = Array.append base.consts (added ()); rels }
