open Vplan_cq

type t = {
  atom : Atom.t;
  view : View.t;
}

let pp ppf t = Atom.pp ppf t.atom

(* A compiled view is one int array.  The view's variables are coded
   0 .. num_vars - 1 by first occurrence, head first; its constant
   occurrences are numbered k = 0, 1, ... in the same order and coded
   num_vars + k.  Layout:

     num_vars; num_head_vars; num_consts; num_atoms; head arity h;
     the h head codes;
     per body atom: its predicate's hash, its arity, its codes.

   The constants and predicate names themselves stay in the view. *)
module Pattern = struct
  type t = int array

  let length = Array.length
  let num_vars p = p.(0)
  let num_head_vars p = p.(1)
  let num_consts p = p.(2)
  let num_atoms p = p.(3)
  let head_arity p = p.(4)
  let head p i = p.(5 + i)
  let rec head_from p v i = if p.(5 + i) = v then i else head_from p v (i + 1)
  let head_position p v = head_from p v 0
  let body_start p = 5 + p.(4)
  let atom_hash p o = p.(o)
  let atom_arity p o = p.(o + 1)
  let atom_arg p o i = p.(o + 2 + i)
  let next_atom p o = o + 2 + p.(o + 1)

  (* The view's variables, numbered by first occurrence in an
     open-addressing table whose size, a power of two, is at least twice
     the number of argument occurrences; code -1 marks a free slot. *)
  type table = { names : string array; codes : int array; mutable count : int }

  let rec probe tb x i =
    if tb.codes.(i) < 0 || String.equal tb.names.(i) x then i
    else probe tb x ((i + 1) land (Array.length tb.codes - 1))

  let code tb x =
    let i = probe tb x (Hashtbl.hash x land (Array.length tb.codes - 1)) in
    if tb.codes.(i) < 0 then begin
      tb.names.(i) <- x;
      tb.codes.(i) <- tb.count;
      tb.count <- tb.count + 1
    end;
    tb.codes.(i)

  (* Two passes over the atoms, head first, each linear in the view's
     size: the first numbers the variables, the second fills the array,
     numbering constant occurrences as it meets them. *)
  let compile (view : View.t) =
    let args = List.fold_left (fun n (a : Atom.t) -> n + List.length a.args) 0 view.body in
    let arity = List.length view.head.args in
    let rec fit n = if n >= 2 * (arity + args) then n else fit (2 * n) in
    let size = fit 8 in
    let tb = { names = Array.make size ""; codes = Array.make size (-1); count = 0 } in
    let num_consts = ref 0 in
    let number (a : Atom.t) =
      List.iter
        (function Term.Var x -> ignore (code tb x) | Term.Cst _ -> incr num_consts)
        a.args
    in
    number view.head;
    let num_head_vars = tb.count in
    List.iter number view.body;
    let num_atoms = List.length view.body in
    let p = Array.make (5 + arity + (2 * num_atoms) + args) 0 in
    p.(0) <- tb.count;
    p.(1) <- num_head_vars;
    p.(2) <- !num_consts;
    p.(3) <- num_atoms;
    p.(4) <- arity;
    let at = ref 5 and const = ref tb.count in
    let put c =
      p.(!at) <- c;
      incr at
    in
    let fill args =
      List.iter
        (function
          | Term.Var x -> put (code tb x)
          | Term.Cst _ ->
              put !const;
              incr const)
        args
    in
    fill view.head.args;
    List.iter
      (fun (a : Atom.t) ->
        put (Hashtbl.hash a.pred);
        put (List.length a.args);
        fill a.args)
      view.body;
    p
end

module Query_code = struct
  type t = {
    body : Atom.t array;
    args : int array array;
    head : int array;
    num_vars : int;
    num_terms : int;
    terms : Term.t array;
    rank : int array;
    hashes : int array;
    preds : string array;
    slot : int array;
    subgoals : int array array;
  }

  let compile (query : Query.t) =
    let vars = Query.vars query and constants = Query.constants query in
    let num_vars = List.length vars in
    let terms =
      Array.of_list
        (List.map (fun x -> Term.Var x) vars @ List.map (fun c -> Term.Cst c) constants)
    in
    let num_terms = Array.length terms in
    let codes_of = Hashtbl.create 16 in
    Array.iteri (fun i t -> Hashtbl.replace codes_of t i) terms;
    let codes args = Array.of_list (List.map (Hashtbl.find codes_of) args) in
    let body = Array.of_list query.body in
    (* The canonical database spells variable X as the constant "@X" and
       orders tuples by [Term.compare_const] on those spellings; ranking
       the codes once keeps that order without building the spellings
       per tuple. *)
    let spelled =
      Array.map (function Term.Var x -> Term.Str ("@" ^ x) | Term.Cst c -> c) terms
    in
    let sorted = Array.init num_terms Fun.id in
    Array.sort (fun a b -> Term.compare_const spelled.(a) spelled.(b)) sorted;
    let rank = Array.make num_terms 0 in
    Array.iteri (fun r c -> rank.(c) <- r) sorted;
    let preds = Array.of_list (Query.body_preds query) in
    let rec find pred j = if String.equal preds.(j) pred then j else find pred (j + 1) in
    let slot = Array.map (fun (a : Atom.t) -> find a.pred 0) body in
    let subgoals = Array.map (fun _ -> []) preds in
    for i = Array.length body - 1 downto 0 do
      subgoals.(slot.(i)) <- i :: subgoals.(slot.(i))
    done;
    let subgoals = Array.map Array.of_list subgoals in
    {
      body;
      args = Array.map (fun (a : Atom.t) -> codes a.args) body;
      head = codes query.head.args;
      num_vars;
      num_terms;
      terms;
      rank;
      hashes = Array.map Hashtbl.hash preds;
      preds;
      slot;
      subgoals;
    }

  (* The code of constant [c] from [i] on, -1 when the query lacks it.
     These scans run per view on every call, so they are top-level
     functions: a local one would allocate its closure each time. *)
  let rec const_from qc c i =
    if i = qc.num_terms then -1
    else
      match qc.terms.(i) with
      | Term.Cst d when Term.equal_const c d -> i
      | _ -> const_from qc c (i + 1)

  let const_code qc c = const_from qc c qc.num_vars

  (* The slot of [pred], whose hash is [hash], from [j] on, or -1.  A
     query has a handful of predicates: a scan comparing hashes computed
     once beats hashing the name per lookup. *)
  let rec slot_from qc hash pred j =
    if j = Array.length qc.preds then -1
    else if qc.hashes.(j) = hash && String.equal qc.preds.(j) pred then j
    else slot_from qc hash pred (j + 1)

  let slot_of qc hash pred = slot_from qc hash pred 0
end

module Classes = struct
  type t = {
    members : View.t list list;
    reps : View.t array;
    patterns : Pattern.t array;
  }

  let compile members =
    let reps = Array.of_list (List.map List.hd members) in
    { members; reps; patterns = Array.map Pattern.compile reps }

  let members t = t.members
  let of_views views = compile (List.map (fun v -> [ v ]) views)
end

type coded = {
  tuple : t;
  codes : int array;
  pattern : Pattern.t;
  consts : int array;
  slots : int array;
}

(* Lexicographic by rank.  Tuples of one view differ only where the view
   head has a variable, and a variable is always bound to a query term,
   so two unequal codes at one position are both ranked. *)
let rec compare_from rank a b p =
  if p = Array.length a then 0
  else if a.(p) = b.(p) then compare_from rank a b (p + 1)
  else Int.compare rank.(a.(p)) rank.(b.(p))

(* Fills [slots] with the query slot of each body predicate of the view;
   false, as soon as one predicate does not occur in the query: such a
   view has no tuple, so it need not be matched. *)
let rec fill_slots qc p slots k o = function
  | [] -> true
  | (a : Atom.t) :: rest ->
      let s = Query_code.slot_of qc (Pattern.atom_hash p o) a.pred in
      s >= 0
      && begin
           slots.(k) <- s;
           fill_slots qc p slots (k + 1) (Pattern.next_atom p o) rest
         end

(* One view's match against the query.  [binding] maps view variables
   to query codes (-1 unbound); [trail] records bindings for undo;
   [found] collects the head codes of every complete match.  The search
   is top-level functions over this record, so a view allocates the
   record and its arrays, not a closure per step. *)
type matching = {
  qc : Query_code.t;
  p : Pattern.t;
  consts : int array;  (* per constant occurrence, its query code or -1 *)
  slots : int array;  (* per body atom, its predicate's slot *)
  binding : int array;
  trail : int array;
  mutable top : int;
  mutable found : int array list;
}

(* The query codes of the constant occurrences in [atoms] (and [args]),
   from occurrence [k] on *)
let rec resolve m k (args : Term.t list) (atoms : Atom.t list) =
  match (args, atoms) with
  | Term.Cst c :: rest, _ ->
      m.consts.(k) <- Query_code.const_code m.qc c;
      resolve m (k + 1) rest atoms
  | Term.Var _ :: rest, _ -> resolve m k rest atoms
  | [], a :: atoms -> resolve m k a.args atoms
  | [], [] -> ()

let undo m mark =
  while m.top > mark do
    m.top <- m.top - 1;
    m.binding.(m.trail.(m.top)) <- -1
  done

(* Send the atom at [o] to a subgoal with arguments [qargs]: a constant
   must meet its own code, a variable its binding or a fresh one. *)
let rec unify m o qargs i =
  i = Array.length qargs
  ||
  let nv = Pattern.num_vars m.p in
  let c = Pattern.atom_arg m.p o i and target = qargs.(i) in
  (if c >= nv then m.consts.(c - nv) = target
   else
     let cur = m.binding.(c) in
     if cur >= 0 then cur = target
     else begin
       m.binding.(c) <- target;
       m.trail.(m.top) <- c;
       m.top <- m.top + 1;
       true
     end)
  && unify m o qargs (i + 1)

(* The head's codes under the current binding; a head constant the
   query lacks, occurrence [k], codes as -1 - k *)
let head_codes m =
  let nv = Pattern.num_vars m.p in
  let codes = Array.make (Pattern.head_arity m.p) 0 in
  for i = 0 to Array.length codes - 1 do
    let c = Pattern.head m.p i in
    codes.(i) <-
      (if c < nv then m.binding.(c)
       else if m.consts.(c - nv) >= 0 then m.consts.(c - nv)
       else -1 - (c - nv))
  done;
  codes

(* Body atom [k], at offset [o], to each subgoal over its predicate *)
let rec search m k o =
  if k = Pattern.num_atoms m.p then m.found <- head_codes m :: m.found
  else
    let candidates = m.qc.subgoals.(m.slots.(k)) in
    for j = 0 to Array.length candidates - 1 do
      let qargs = m.qc.args.(candidates.(j)) in
      if Array.length qargs = Pattern.atom_arity m.p o then begin
        let mark = m.top in
        if unify m o qargs 0 then search m (k + 1) (Pattern.next_atom m.p o);
        undo m mark
      end
    done

(* Every homomorphism from the view body into the query body, projected
   onto the head, as view tuples in canonical-database order *)
let matches ?budget (qc : Query_code.t) ((view : View.t), p, slots) =
  (* one tick per view: cancellation reaches each worker between views *)
  Vplan_core.Budget.tick budget;
  let nv = Pattern.num_vars p in
  let m =
    {
      qc;
      p;
      consts = Array.make (Pattern.num_consts p) (-1);
      slots;
      binding = Array.make nv (-1);
      trail = Array.make nv 0;
      top = 0;
      found = [];
    }
  in
  resolve m 0 view.head.args view.body;
  search m 0 (Pattern.body_start p);
  let name = View.name view in
  List.map
    (fun codes ->
      (* a negative code stands for the view's own head constant *)
      let args =
        List.mapi (fun i t -> if codes.(i) >= 0 then qc.terms.(codes.(i)) else t) view.head.args
      in
      {
        tuple = { atom = Atom.make name args; view };
        codes;
        pattern = p;
        consts = m.consts;
        slots = m.slots;
      })
    (List.sort_uniq (fun a b -> compare_from qc.rank a b 0) m.found)

let compute_coded ?budget ?(domains = 1) ~query (classes : Classes.t) =
  let qc = Vplan_obs.Obs.phase "canonical_db" (fun () -> Query_code.compile query) in
  Vplan_obs.Obs.phase "view_tuples" (fun () ->
      let num_views = Array.length classes.reps in
      let rec select i acc =
        if i < 0 then acc
        else
          let view = classes.reps.(i) and p = classes.patterns.(i) in
          let slots = Array.make (Pattern.num_atoms p) 0 in
          select (i - 1)
            (if fill_slots qc p slots 0 (Pattern.body_start p) view.body then
               (view, p, slots) :: acc
             else acc)
      in
      let coded =
        List.concat
          (Vplan_parallel.Parallel.map ?budget ~domains (matches ?budget qc)
             (select (num_views - 1) []))
      in
      Vplan_obs.Trace.annotate "views" (float_of_int num_views);
      Vplan_obs.Trace.annotate "tuples" (float_of_int (List.length coded));
      (qc, coded))

let compute ?budget ?domains ~query views =
  List.map
    (fun c -> c.tuple)
    (snd (compute_coded ?budget ?domains ~query (Classes.of_views views)))
