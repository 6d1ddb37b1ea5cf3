module Atom = Vplan_cq.Atom
module Term = Vplan_cq.Term
module Names = Vplan_cq.Names
module Interned = Vplan_exec.Interned
module Exec = Vplan_exec.Exec
module Budget = Vplan_core.Budget
module Vplan_error = Vplan_core.Vplan_error

let max_subgoals = 20

let width_limit n =
  raise (Vplan_error.Error (Vplan_error.Width_limit { subgoals = n; max_subgoals }))

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

let relation_cells img (a : Atom.t) =
  Interned.cardinality img a.Atom.pred * max 1 (Atom.arity a)

(* -- cardinality sources -------------------------------------------- *)

(* Where the DP gets the size of a subset's intermediate relation: the
   materialized view relations (exact), or join profiles over statistics
   (estimated).  Either way a subset's cells are a function of the atom
   set alone, which is what makes the subset DP exact. *)
type source =
  | Exact of { img : Interned.t; memo : Subplan.t option }
  | Estimated of Estimate.t

let exact ?memo img = Exact { img; memo }
let estimated est = Estimated est
let memo = function Exact { memo; _ } -> memo | Estimated _ -> None
let estimator = function Estimated est -> Some est | Exact _ -> None

let atom_cells = function
  | Exact { img; _ } -> fun a -> float_of_int (relation_cells img a)
  | Estimated est -> Estimate.relation_cells_est est

(* Summed smallest first, so the float total does not depend on the
   order the atoms arrive in. *)
let sum_cells cells =
  Array.sort Float.compare cells;
  Array.fold_left ( +. ) 0. cells

let relation_total src atoms = sum_cells (Array.map (atom_cells src) atoms)

(* -- layouts and prepared bodies ------------------------------------ *)

(* Canonical atom indexing (sorted by rendering, ties by position): a
   subset of a body is a bitmask over it.  The memo's keys read subsets
   off in this order, so candidates sharing an atom set share entries;
   and the estimated source folds profiles along it, pinning the
   non-associative [Estimate.join_profiles] to one value per subset.

   A layout lays a set of bodies out at once, rendering each distinct
   atom once; each body's canonical order sorts its positions by those
   renderings. *)
type layout = {
  reps : Atom.t array;  (* each distinct atom once *)
  keys : string array;  (* its rendering *)
  laid : (Atom.t array * int array) list;
      (* per body: its atoms in canonical order, and their distinct ids *)
}

let layout bodies =
  let ids = Hashtbl.create 64 and reps = ref [] and count = ref 0 in
  let id_of a =
    match Hashtbl.find_opt ids a with
    | Some i -> i
    | None ->
        let i = !count in
        Hashtbl.add ids a i;
        reps := a :: !reps;
        incr count;
        i
  in
  let raw =
    List.map
      (fun body ->
        let n = List.length body in
        if n > max_subgoals then width_limit n;
        let atoms = Array.of_list body in
        (atoms, Array.map id_of atoms))
      bodies
  in
  let reps = Array.of_list (List.rev !reps) in
  let keys = Array.map Atom.to_string reps in
  let canonical (atoms, ids) =
    let perm = Array.init (Array.length atoms) Fun.id in
    Array.stable_sort (fun i j -> String.compare keys.(ids.(i)) keys.(ids.(j))) perm;
    (Array.map (fun i -> atoms.(i)) perm, Array.map (fun i -> ids.(i)) perm)
  in
  { reps; keys; laid = List.map canonical raw }

(* A body prepared under one source.  Its subset sizes are built on
   first use and then filled state by state: [single] serves the costing
   of single orders, [dp] the DP.  They are one table for the estimated
   source; for the exact source only the DP's shares the memo, so
   costing a single order (a seed, a ranking key) never moves the
   memo's counters. *)
type body = {
  src : source;
  atoms : Atom.t array;  (* canonical order *)
  keys : string array;  (* each atom's rendering *)
  rel : float;  (* relation total *)
  aprof : Estimate.profile array;  (* estimated source: each atom's profile *)
  mutable single : (int -> float) option;
  mutable dp : (int -> float) option;
}

let prepare layout src =
  let dcells = Array.map (atom_cells src) layout.reps in
  let dprof =
    match src with
    | Exact _ -> [||]
    | Estimated est ->
        let vars = Estimate.index (Array.to_list layout.reps) in
        Array.map (Estimate.atom_profile est vars) layout.reps
  in
  List.map
    (fun (atoms, ids) ->
      {
        src;
        atoms;
        keys = Array.map (fun i -> layout.keys.(i)) ids;
        rel = sum_cells (Array.map (fun i -> dcells.(i)) ids);
        aprof = (if Array.length dprof = 0 then [||] else Array.map (fun i -> dprof.(i)) ids);
        single = None;
        dp = None;
      })
    layout.laid

let prepare_one src body =
  match prepare (layout [ body ]) src with [ b ] -> b | _ -> assert false

(* Exact cells: envs(S) is computed from envs(S minus one atom) once —
   or not at all when [memo] already holds the atom set from an earlier
   candidate.

   Environments are flat arrays of the image's constant codes over the
   subset's sorted variable codes ({!Subplan.entry}): extending one binds
   a handful of int cells instead of rebuilding a string-keyed map per
   atom.
   Starting from the single empty environment, the environments of a
   subset are distinct by construction (an environment plus a matched
   tuple determines the extension), so no deduplication is ever needed,
   and the set — though not the list order — is canonical per atom
   set. *)
let exact_cells ~memo img atoms keys =
  let n = Array.length atoms in
  (* variable codes: drawn from the memo's intern table when present
     (shared across candidates, so entry slots are canonical), local
     otherwise.  The "$" prefix keeps variable names out of the atom
     renderings' namespace. *)
  let code_of =
    let codes = Hashtbl.create 16 in
    let fresh =
      match memo with
      | Some m -> fun x -> Subplan.intern m ("$" ^ x)
      | None -> fun _ -> Hashtbl.length codes
    in
    fun x ->
      match Hashtbl.find_opt codes x with
      | Some c -> c
      | None ->
          let c = fresh x in
          Hashtbl.add codes x c;
          c
  in
  (* memo keys: each atom rendering is interned to a small code once per
     DP, and a subset key packs the codes of its set bits in index order
     — a few bytes per atom to hash instead of the full renderings *)
  let codes =
    match memo with
    | None -> [||]
    | Some m -> Array.map (Subplan.intern m) keys
  in
  let subset_key s =
    let b = Buffer.create (4 * n) in
    for i = 0 to n - 1 do
      if s land (1 lsl i) <> 0 then Buffer.add_int32_le b (Int32.of_int codes.(i))
    done;
    Buffer.contents b
  in
  (* Joining an entry with atom [i] is one step of the execution
     engine's kernel over the image; the final subset only counts. *)
  let step i prev = Exec.compile img ~var:code_of prev.Subplan.slots atoms.(i) in
  let join i prev =
    let st = step i prev in
    let slots = Exec.slots st in
    let envs = Exec.join st prev.Subplan.envs in
    { Subplan.slots; envs; cells = List.length envs * max 1 (Array.length slots) }
  in
  let count_cells i prev =
    let st = step i prev in
    Exec.count st prev.Subplan.envs * max 1 (Array.length (Exec.slots st))
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
   is reached.  A singleton's profile is its atom's: joining the unit
   profile changes no bit of it.  A subset not yet profiled holds
   [unset], the first atom's profile; so may a singleton, which is
   re-derived for free. *)
let estimated_cells aprof =
  let n = Array.length aprof in
  if n = 0 then fun _ -> 0.
  else begin
    let unset = aprof.(0) in
    let profiles = Array.make (1 lsl n) unset in
    let rec profile_of s =
      let p = profiles.(s) in
      if p != unset then p
      else begin
        let bit = s land -s in
        let i = lowest_index bit in
        let p =
          if s = bit then aprof.(i)
          else Estimate.join_profiles (profile_of (s lxor bit)) aprof.(i)
        in
        profiles.(s) <- p;
        p
      end
    in
    fun s ->
      let p = profile_of s in
      Estimate.profile_card p *. float_of_int (Estimate.profile_width p)
  end

(* [cells b ~shared s] = size(IR) of subset [s] of the canonical atoms. *)
let cells b ~shared =
  match ((if shared then b.dp else b.single), b.src) with
  | Some f, _ -> f
  | None, Estimated _ ->
      let f = estimated_cells b.aprof in
      b.single <- Some f;
      b.dp <- Some f;
      f
  | None, Exact { img; memo } ->
      let f = exact_cells ~memo:(if shared then memo else None) img b.atoms b.keys in
      if shared then b.dp <- Some f else b.single <- Some f;
      f

let cost_of b order =
  match order with
  | [] -> 0.
  | _ ->
      let atoms = b.atoms in
      let cells = cells b ~shared:false in
      (* each atom of the order takes an unused canonical index (bodies
         may repeat an atom) *)
      let used = Array.make (Array.length atoms) false in
      let index_of a =
        let rec go i =
          if (not used.(i)) && (atoms.(i) == a || Atom.equal atoms.(i) a) then begin
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
      b.rel +. ir

let lower_bound_of b = b.rel
let cost src order = match order with [] -> 0. | _ -> cost_of (prepare_one src order) order
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
let optimal_of ?(connected = false) ?budget ?(bound = Float.infinity) b =
  let atoms = b.atoms in
  let n = Array.length atoms in
  if n = 0 then if 0. < bound then Some ([], 0.) else None
  else begin
    let rel = b.rel in
    if not (rel < bound) then None
    else begin
      let cells = cells b ~shared:true in
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

let optimal ?connected ?budget ?bound src body =
  optimal_of ?connected ?budget ?bound (prepare_one src body)
