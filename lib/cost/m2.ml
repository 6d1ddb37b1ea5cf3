open Vplan_relational
module Atom = Vplan_cq.Atom
module Term = Vplan_cq.Term
module Names = Vplan_cq.Names
module Budget = Vplan_core.Budget
module Vplan_error = Vplan_core.Vplan_error

let max_subgoals = 20

let width_limit n =
  raise (Vplan_error.Error (Vplan_error.Width_limit { subgoals = n; max_subgoals }))

let relation_cells db (a : Atom.t) =
  Eval.relation_size db a * max 1 (Atom.arity a)

let intermediate_sizes db order =
  let _, rev_sizes =
    List.fold_left
      (fun (envs, sizes) atom ->
        let envs = Eval.extend db envs atom in
        (envs, List.length envs :: sizes))
      ([ Eval.empty_env ], [])
      order
  in
  List.rev rev_sizes

(* Variable sets as bitsets over a per-body variable index: emptiness-of-
   intersection (the connectivity test) becomes a word operation instead
   of a [Names.Sset] rebuild per DP state.  A body of up to 20 atoms
   rarely exceeds 63 distinct variables, but arities are unbounded, so
   masks are word arrays rather than a single int. *)
module Mask = struct
  let zero words = Array.make words 0

  let union a b = Array.init (Array.length a) (fun k -> a.(k) lor b.(k))

  let intersects a b =
    let n = Array.length a in
    let rec go k = k < n && (a.(k) land b.(k) <> 0 || go (k + 1)) in
    go 0
end

let lowest_index bit =
  let rec find k = if 1 lsl k = bit then k else find (k + 1) in
  find 0

(* compiled atom argument: a constant to check, or a variable code *)
type carg = Ccst of Term.const | Cvar of int

let bisect (slots : int array) v =
  let lo = ref 0 and hi = ref (Array.length slots) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if slots.(mid) < v then lo := mid + 1 else hi := mid
  done;
  !lo

let mem_sorted slots v =
  let k = bisect slots v in
  k < Array.length slots && slots.(k) = v

let merge_sorted (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < la && !j < lb do
    let x = a.(!i) and y = b.(!j) in
    if x = y then begin
      out.(!k) <- x;
      incr i;
      incr j
    end
    else if x < y then begin
      out.(!k) <- x;
      incr i
    end
    else begin
      out.(!k) <- y;
      incr j
    end;
    incr k
  done;
  while !i < la do
    out.(!k) <- a.(!i);
    incr i;
    incr k
  done;
  while !j < lb do
    out.(!k) <- b.(!j);
    incr j;
    incr k
  done;
  if !k = la + lb then out else Array.sub out 0 !k

(* -- hash-join primitives ------------------------------------------- *)
(* The exact source's subplan joins: instead of
   running every (environment, tuple) pair through compiled checks,
   tuples passing the env-independent checks (constants, repeated fresh
   variables) are filtered once, then grouped into a hash table keyed on
   the positions matching already-bound slots; each environment probes
   with its slot values.  An empty key degenerates to a cross product. *)

let filter_tuples const_checks dup_checks (tuples : Term.const array array) =
  let out = ref [] in
  for k = Array.length tuples - 1 downto 0 do
    let t = tuples.(k) in
    if
      List.for_all (fun (p, c) -> Term.equal_const c t.(p)) const_checks
      && List.for_all (fun (p, p0) -> Term.equal_const t.(p) t.(p0)) dup_checks
    then out := t :: !out
  done;
  !out

let row_key slot_checks (t : Term.const array) =
  List.map (fun (p, _) -> t.(p)) slot_checks

let env_key slot_checks (env : Term.const array) =
  List.map (fun (_, j) -> env.(j)) slot_checks

let group_by_key slot_checks filtered =
  let tbl = Hashtbl.create (max 16 (List.length filtered)) in
  List.iter
    (fun t ->
      let key = row_key slot_checks t in
      let prev = match Hashtbl.find_opt tbl key with Some l -> l | None -> [] in
      Hashtbl.replace tbl key (t :: prev))
    filtered;
  tbl

(* Compile an atom's argument positions against a slot array. *)
let compile_checks (cargs : carg array) (slots : int array) =
  let const_checks = ref [] and slot_checks = ref [] and dup_checks = ref [] in
  let first_pos = Hashtbl.create 8 in
  Array.iteri
    (fun p arg ->
      match arg with
      | Ccst c -> const_checks := (p, c) :: !const_checks
      | Cvar v ->
          if mem_sorted slots v then
            slot_checks := (p, bisect slots v) :: !slot_checks
          else (
            match Hashtbl.find_opt first_pos v with
            | Some p0 -> dup_checks := (p, p0) :: !dup_checks
            | None -> Hashtbl.add first_pos v p))
    cargs;
  (first_pos, !const_checks, !slot_checks, !dup_checks)

(* value source per new slot: an existing slot or a (first occurrence)
   tuple position *)
let sources_for prev_slots first_pos new_slots =
  Array.map
    (fun v ->
      if mem_sorted prev_slots v then -bisect prev_slots v - 1
      else Hashtbl.find first_pos v)
    new_slots

let build_env sources nlen (env : Term.const array) (tuple : Term.const array) =
  Array.init nlen (fun k ->
      let src = sources.(k) in
      if src >= 0 then tuple.(src) else env.(-src - 1))

let hash_join ~slots ~cargs ~avars ~tuples envs =
  let new_slots = merge_sorted slots avars in
  let nlen = Array.length new_slots in
  let first_pos, const_checks, slot_checks, dup_checks =
    compile_checks cargs slots
  in
  let filtered = filter_tuples const_checks dup_checks tuples in
  let sources = sources_for slots first_pos new_slots in
  let out =
    match slot_checks with
    | [] ->
        List.concat_map
          (fun env -> List.rev_map (fun t -> build_env sources nlen env t) filtered)
          envs
    | _ :: _ ->
        let tbl = group_by_key slot_checks filtered in
        List.concat_map
          (fun env ->
            match Hashtbl.find_opt tbl (env_key slot_checks env) with
            | None -> []
            | Some ts -> List.rev_map (fun t -> build_env sources nlen env t) ts)
          envs
  in
  (new_slots, out)

let carg_of code_of (a : Atom.t) =
  Array.of_list
    (List.map
       (function Term.Cst c -> Ccst c | Term.Var x -> Cvar (code_of x))
       a.Atom.args)

let local_coder () =
  let local = Hashtbl.create 16 and next = ref 0 in
  fun x ->
    match Hashtbl.find_opt local x with
    | Some c -> c
    | None ->
        let c = !next in
        Hashtbl.add local x c;
        incr next;
        c

let avars_of cargs =
  Array.to_list cargs
  |> List.filter_map (function Cvar v -> Some v | Ccst _ -> None)
  |> List.sort_uniq Int.compare
  |> Array.of_list

let tuples_of db (a : Atom.t) =
  match Database.find a.Atom.pred db with
  | None -> [||]
  | Some r -> Array.of_list (List.map Array.of_list (Relation.tuples r))

(* -- cardinality sources -------------------------------------------- *)

(* Where the DP gets the size of a subset's intermediate relation: the
   materialized view relations (exact), or join profiles over statistics
   (estimated).  Either way a subset's cells are a function of the atom
   set alone, which is what makes the subset DP exact. *)
type source =
  | Exact of { db : Database.t; memo : Subplan.t option }
  | Estimated of Estimate.t

let exact ?memo db = Exact { db; memo }
let estimated est = Estimated est
let memo = function Exact { memo; _ } -> memo | Estimated _ -> None

let atom_cells = function
  | Exact { db; _ } -> fun a -> float_of_int (relation_cells db a)
  | Estimated est -> Estimate.relation_cells_est est

(* Summed smallest first, so the float total does not depend on the
   order the atoms arrive in. *)
let relation_total src atoms =
  Array.map (atom_cells src) atoms
  |> Array.to_list |> List.sort Float.compare
  |> List.fold_left ( +. ) 0.

(* Canonical atom indexing (sorted by rendering, ties by position): a
   subset of a body is a bitmask over it.  The memo's keys read subsets
   off in this order, so candidates sharing an atom set share entries;
   and the estimated source folds profiles along it, pinning the
   non-associative [Estimate.join_profiles] to one value per subset. *)
let canonical body =
  let n = List.length body in
  if n > max_subgoals then width_limit n;
  let atoms = Array.of_list body in
  let ids = Array.map Atom.to_string atoms in
  let perm = Array.init n Fun.id in
  Array.stable_sort (fun i j -> String.compare ids.(i) ids.(j)) perm;
  Array.map (fun i -> atoms.(i)) perm

(* Exact cells: envs(S) is computed from envs(S minus one atom) once —
   or not at all when [memo] already holds the atom set from an earlier
   candidate.

   Environments are flat constant arrays over the subset's sorted
   variable codes ({!Subplan.entry}): extending one binds a handful of
   array cells instead of rebuilding a string-keyed map per atom.
   Starting from the single empty environment, the environments of a
   subset are distinct by construction (an environment plus a matched
   tuple determines the extension), so no deduplication is ever needed,
   and the set — though not the list order — is canonical per atom
   set. *)
let exact_cells ~memo db atoms =
  let n = Array.length atoms in
  (* variable codes: drawn from the memo's intern table when present
     (shared across candidates, so entry slots are canonical), local
     otherwise.  The "$" prefix keeps variable names out of the atom
     renderings' namespace. *)
  let code_of =
    match memo with
    | Some m -> fun x -> Subplan.intern m ("$" ^ x)
    | None -> local_coder ()
  in
  let cargs = Array.map (carg_of code_of) atoms in
  let avars = Array.map avars_of cargs in
  let tuples = Array.map (tuples_of db) atoms in
  (* memo keys: each atom rendering is interned to a small code once per
     DP, and a subset key packs the codes of its set bits in index order
     — a few bytes per atom to hash instead of the full renderings *)
  let codes =
    match memo with
    | None -> [||]
    | Some m -> Array.map (fun a -> Subplan.intern m (Atom.to_string a)) atoms
  in
  let subset_key s =
    let b = Buffer.create (4 * n) in
    for i = 0 to n - 1 do
      if s land (1 lsl i) <> 0 then Buffer.add_int32_le b (Int32.of_int codes.(i))
    done;
    Buffer.contents b
  in
  (* Joining an entry with atom [i]: one hash build over the atom's
     filtered tuples, one probe per environment. *)
  let join i prev =
    let new_slots, envs =
      hash_join ~slots:prev.Subplan.slots ~cargs:cargs.(i) ~avars:avars.(i)
        ~tuples:tuples.(i) prev.Subplan.envs
    in
    {
      Subplan.slots = new_slots;
      envs;
      cells = List.length envs * max 1 (Array.length new_slots);
    }
  in
  let count_cells i prev =
    let prev_slots = prev.Subplan.slots in
    let new_slots = merge_sorted prev_slots avars.(i) in
    let _, const_checks, slot_checks, dup_checks = compile_checks cargs.(i) prev_slots in
    let filtered = filter_tuples const_checks dup_checks tuples.(i) in
    let count =
      match slot_checks with
      | [] -> List.length prev.Subplan.envs * List.length filtered
      | _ :: _ ->
          let counts = Hashtbl.create (max 16 (List.length filtered)) in
          List.iter
            (fun t ->
              let key = row_key slot_checks t in
              let c = match Hashtbl.find_opt counts key with Some c -> c | None -> 0 in
              Hashtbl.replace counts key (c + 1))
            filtered;
          List.fold_left
            (fun acc env ->
              match Hashtbl.find_opt counts (env_key slot_checks env) with
              | Some c -> acc + c
              | None -> acc)
            0 prev.Subplan.envs
    in
    count * max 1 (Array.length new_slots)
  in
  let full = (1 lsl n) - 1 in
  let entries : Subplan.entry option array = Array.make (full + 1) None in
  entries.(0) <- Some { Subplan.slots = [||]; envs = [ [||] ]; cells = 0 };
  (* a predecessor already at hand in this setup *)
  let rec local s i =
    if i >= n then None
    else if s land (1 lsl i) <> 0 then
      match entries.(s lxor (1 lsl i)) with
      | Some prev -> Some (i, prev)
      | None -> local s (i + 1)
    else local s (i + 1)
  in
  let rec entry_of s =
    match entries.(s) with
    | Some e -> e
    | None ->
        let compute () =
          (* extend from any predecessor already at hand — live in this
             setup, or cached by an earlier candidate — before resorting
             to the recursive lowest-bit chain, which may materialize
             states no ordering of this body needs *)
          let cached () =
            match memo with
            | None -> None
            | Some m ->
                let rec go i =
                  if i >= n then None
                  else if s land (1 lsl i) <> 0 then begin
                    let p = s lxor (1 lsl i) in
                    match Subplan.find m (subset_key p) with
                    | Some prev ->
                        entries.(p) <- Some prev;
                        Some (i, prev)
                    | None -> go (i + 1)
                  end
                  else go (i + 1)
                in
                go 0
          in
          match local s 0 with
          | Some (i, prev) -> join i prev
          | None -> (
              match cached () with
              | Some (i, prev) -> join i prev
              | None ->
                  let bit = s land -s in
                  join (lowest_index bit) (entry_of (s lxor bit)))
        in
        let e =
          match memo with
          | None -> compute ()
          | Some m -> Subplan.find_or_add m (subset_key s) compute
        in
        entries.(s) <- Some e;
        e
  in
  (* The full set ends every ordering, and across candidates no minimal
     rewriting's body contains another's, so its environments are never
     extended: count the final join from a materialized predecessor
     instead of building and caching it. *)
  let final = ref None in
  fun s ->
    if s <> full then float_of_int (entry_of s).Subplan.cells
    else
      match !final with
      | Some c -> c
      | None ->
          let i, prev =
            match local s 0 with
            | Some p -> p
            | None ->
                let bit = s land -s in
                (lowest_index bit, entry_of (s lxor bit))
          in
          let c = float_of_int (count_cells i prev) in
          final := Some c;
          c

(* Estimated cells: each subset's profile folds its lowest-bit chain
   over the canonical indexing, so it is well-defined however the subset
   is reached. *)
let estimated_cells est atoms =
  let aprof = Array.map (Estimate.atom_profile est) atoms in
  let profiles = Array.make (1 lsl Array.length atoms) None in
  let rec profile_of s =
    if s = 0 then Estimate.unit_profile
    else
      match profiles.(s) with
      | Some p -> p
      | None ->
          let bit = s land -s in
          let p = Estimate.join_profiles (profile_of (s lxor bit)) aprof.(lowest_index bit) in
          profiles.(s) <- Some p;
          p
  in
  fun s ->
    let p = profile_of s in
    Estimate.profile_card p *. float_of_int (Estimate.profile_width p)

(* [cells s] = size(IR) of subset [s] of the canonical [atoms].  Only the
   DP shares entries through the memo: costing a single order (a seed, a
   ranking key) must not disturb the memo's counters. *)
let subset_cells ~shared src atoms =
  match src with
  | Exact { db; memo } -> exact_cells ~memo:(if shared then memo else None) db atoms
  | Estimated est -> estimated_cells est atoms

let cost src order =
  match order with
  | [] -> 0.
  | _ ->
      let atoms = canonical order in
      let cells = subset_cells ~shared:false src atoms in
      (* each atom of the order takes an unused canonical index (bodies
         may repeat an atom) *)
      let used = Array.make (Array.length atoms) false in
      let index_of a =
        let rec go i =
          if (not used.(i)) && Atom.equal atoms.(i) a then begin
            used.(i) <- true;
            i
          end
          else go (i + 1)
        in
        go 0
      in
      let _, ir =
        List.fold_left
          (fun (s, acc) a ->
            let s = s lor (1 lsl index_of a) in
            (s, acc +. cells s))
          (0, 0.) order
      in
      relation_total src atoms +. ir

let lower_bound src body = relation_total src (Array.of_list body)

(* Per-atom variable masks over a dense local index, for the connected
   mode's shares-a-variable test. *)
let var_masks atoms =
  let ids = Hashtbl.create 16 in
  Array.iter
    (fun a ->
      List.iter
        (fun x -> if not (Hashtbl.mem ids x) then Hashtbl.add ids x (Hashtbl.length ids))
        (Atom.vars a))
    atoms;
  let words = max 1 ((Hashtbl.length ids + 62) / 63) in
  Array.map
    (fun a ->
      let m = Mask.zero words in
      List.iter
        (fun x ->
          let i = Hashtbl.find ids x in
          m.(i / 63) <- m.(i / 63) lor (1 lsl (i mod 63)))
        (Atom.vars a);
      m)
    atoms

(* DP over subsets.  With all attributes retained, both the tuple count
   and the width of IR depend only on the joined subgoal set, so
   f(S) = min over g in S of f(S \ {g}) + cells(IR(S)), and the total cost
   adds the (order-independent) relation sizes.

   Pruning is sound because every cost term is nonnegative: a state S
   whose total so far (relation cells + cheapest prefix) reaches [bound]
   cannot be a prefix of any ordering of total cost < bound, so its
   cells are never computed (for the exact source: its environments are
   never materialized); and when an entire popcount layer dies, no
   completion below [bound] exists at all.  Totals, not a headroom of
   [bound - relation cells], are compared, so float rounding can never
   prune a tie.  Among states that can still reach a total < bound,
   [best] values are exact and independent of [bound], so the returned
   ordering of an accepted result never depends on how tight the bound
   was — the property the parallel candidate loop's determinism rests
   on. *)
let optimal ?(connected = false) ?budget ?(bound = Float.infinity) src body =
  let n = List.length body in
  if n = 0 then if 0. < bound then Some ([], 0.) else None
  else begin
    let atoms = canonical body in
    let rel = relation_total src atoms in
    if not (rel < bound) then None
    else begin
      let cells = subset_cells ~shared:true src atoms in
      let full = (1 lsl n) - 1 in
      (* subset variable masks, built incrementally and only when the
         connected mode asks ([||] marks unset) *)
      let amask = if connected then var_masks atoms else [||] in
      let masks = Array.make (if connected then full + 1 else 0) [||] in
      let rec mask_of s =
        if Array.length masks.(s) > 0 then masks.(s)
        else begin
          let bit = s land -s in
          let i = lowest_index bit in
          let m = if s = bit then amask.(i) else Mask.union (mask_of (s lxor bit)) amask.(i) in
          masks.(s) <- m;
          m
        end
      in
      let best = Array.make (full + 1) Float.infinity in
      let choice = Array.make (full + 1) (-1) in
      best.(0) <- 0.;
      let exception Dead_layers in
      (try
         for k = 1 to n do
           let layer_live = ref false in
           (* enumerate the popcount-k subsets with Gosper's hack *)
           let s = ref ((1 lsl k) - 1) in
           let continue = ref true in
           while !continue do
             let sv = !s in
             Budget.tick budget;
             (* cheapest live predecessor; in connected mode the peeled
                atom must share a variable with the remaining prefix *)
             let best_prev = ref Float.infinity and arg = ref (-1) in
             for i = 0 to n - 1 do
               if sv land (1 lsl i) <> 0 then begin
                 let p = sv lxor (1 lsl i) in
                 let bp = best.(p) in
                 if
                   bp < !best_prev
                   && ((not connected) || p = 0 || Mask.intersects amask.(i) (mask_of p))
                 then begin
                   best_prev := bp;
                   arg := i
                 end
               end
             done;
             if !best_prev < Float.infinity && rel +. !best_prev < bound then begin
               let c = !best_prev +. cells sv in
               if rel +. c < bound then begin
                 best.(sv) <- c;
                 choice.(sv) <- !arg;
                 layer_live := true
               end
             end;
             if sv = full then continue := false
             else begin
               let c = sv land -sv in
               let r = sv + c in
               let nxt = ((r lxor sv) lsr 2) / c lor r in
               if nxt > full then continue := false else s := nxt
             end
           done;
           (* every state of this layer is dead: no completion can beat
              the bound, abandon the whole DP *)
           if not !layer_live then raise Dead_layers
         done
       with Dead_layers -> ());
      if best.(full) = Float.infinity then None
      else begin
        let rec rebuild s acc =
          if s = 0 then acc
          else
            let i = choice.(s) in
            rebuild (s lxor (1 lsl i)) (atoms.(i) :: acc)
        in
        Some (rebuild full [], rel +. best.(full))
      end
    end
  end
