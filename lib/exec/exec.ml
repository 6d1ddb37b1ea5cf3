open Vplan_cq
open Vplan_relational
module Budget = Vplan_core.Budget
module Obs = Vplan_obs.Obs
module Metrics = Vplan_obs.Metrics
module Profile = Vplan_obs.Profile
module Hypergraph = Vplan_hypergraph.Hypergraph

(* Hash-join evaluation of conjunctive queries over an Interned.t.

   Atoms are joined in the greedy static order ([Hypergraph.schedule]);
   each step is a build/probe hash join keyed on the variables shared
   between the accumulated environments and the next atom.  Per-atom selections (constants, repeated
   variables) are applied in one pass before joining; oversized build
   sides are radix-partitioned; a pairwise semi-join reduction trims
   selections before any join when the head projects most variables
   away.  The join step is also M2's exact cardinality source: costing
   and execution run the same build/probe code. *)

let build_rows_c = Metrics.counter "vplan_join_build_rows"
let probe_rows_c = Metrics.counter "vplan_join_probe_rows"
let partitions_c = Metrics.counter "vplan_join_partitions_total"
let acyclic_c = Metrics.counter "vplan_acyclic_queries_total"
let semijoin_pruned_c = Metrics.counter "vplan_semijoin_rows_pruned_total"

let default_radix_threshold = 65536

(* 2^4 partitions per oversized build: enough to cut a build side well
   below the threshold again without scattering tiny partitions. *)
let radix_partitions = 16

(* -- layouts ---------------------------------------------------------- *)
(* An environment is a flat int array over a layout: the sorted variable
   codes it binds, [layout.(k)] held at position [k]. *)

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

(* -- the join step ---------------------------------------------------- *)

type step = {
  rel : Interned.rel;
  dead : bool;  (* missing relation, other arity or absent constant *)
  const_checks : (int * int) array;  (* (pos, code) *)
  dup_checks : (int * int) array;  (* (pos, first pos of same var) *)
  var_pos : (int * int) array;  (* (var, first pos) for every distinct var *)
  key_env : int array;  (* env positions of the vars bound earlier ... *)
  key_row : int array;  (* ... and their first row positions *)
  slots : int array;  (* the output layout *)
  sources : int array;  (* per output position: row pos, or env pos e as -e-1 *)
}

let no_rows = { Interned.arity = 0; rows = 0; data = [||] }

let compile t ~var layout (a : Atom.t) =
  let args = Array.of_list a.Atom.args in
  let rel, dead =
    match Interned.find t a.Atom.pred with
    | Some rel when rel.Interned.arity = Array.length args -> (rel, false)
    | Some _ | None -> (no_rows, true)
  in
  let dead = ref dead in
  let first = Hashtbl.create 8 in
  let const_checks = ref [] and dup_checks = ref [] and var_pos = ref [] in
  Array.iteri
    (fun pos arg ->
      match arg with
      | Term.Cst c -> (
          match Interned.const_id t c with
          | Some id -> const_checks := (pos, id) :: !const_checks
          | None -> dead := true)
      | Term.Var x -> (
          let v = var x in
          match Hashtbl.find_opt first v with
          | Some p0 -> dup_checks := (pos, p0) :: !dup_checks
          | None ->
              Hashtbl.add first v pos;
              var_pos := (v, pos) :: !var_pos))
    args;
  let var_pos = Array.of_list (List.rev !var_pos) in
  let keys = List.filter (fun (v, _) -> mem_sorted layout v) (Array.to_list var_pos) in
  let vars = Array.map fst var_pos in
  Array.sort Int.compare vars;
  let slots = merge_sorted layout vars in
  {
    rel;
    dead = !dead;
    const_checks = Array.of_list (List.rev !const_checks);
    dup_checks = Array.of_list (List.rev !dup_checks);
    var_pos;
    key_env = Array.of_list (List.map (fun (v, _) -> bisect layout v) keys);
    key_row = Array.of_list (List.map snd keys);
    slots;
    sources =
      Array.map
        (fun v -> if mem_sorted layout v then -bisect layout v - 1 else Hashtbl.find first v)
        slots;
  }

let slots st = st.slots

(* One pass over the stored relation applying the env-independent checks
   (constants, repeated variables); the surviving row numbers feed every
   later build, probe and semi-join. *)
let select st =
  let rel = st.rel in
  let out = ref [] in
  if not st.dead then
    for row = rel.Interned.rows - 1 downto 0 do
      if
        Array.for_all
          (fun (pos, code) -> Interned.get rel row pos = code)
          st.const_checks
        && Array.for_all
             (fun (pos, p0) -> Interned.get rel row pos = Interned.get rel row p0)
             st.dup_checks
      then out := row :: !out
    done;
  Array.of_list !out

(* The one keyed build: [rows] of [rel] folded into one accumulator per
   value of the key read at [key_row].  The lookup [find arr base ps]
   reads its key at [arr.(base + ps.(k))] — an environment (base 0, env
   positions) or another relation's row — so joins, counts and semi-joins
   probe the same table.  A single key hashes the raw code, wider keys an
   array; no key puts every row in one accumulator (a cross product). *)
let index (rel : Interned.rel) key_row rows ~empty ~add =
  let grouped key =
    let tbl = Hashtbl.create (max 16 (Array.length rows)) in
    Array.iter
      (fun row ->
        let k = key rel.Interned.data (row * rel.Interned.arity) key_row in
        let prev = match Hashtbl.find_opt tbl k with Some acc -> acc | None -> empty in
        Hashtbl.replace tbl k (add row prev))
      rows;
    fun arr base ps -> match Hashtbl.find_opt tbl (key arr base ps) with Some acc -> acc | None -> empty
  in
  match Array.length key_row with
  | 0 ->
      let all = Array.fold_right add rows empty in
      fun _ _ _ -> all
  | 1 -> grouped (fun arr base ps -> arr.(base + ps.(0)))
  | _ -> grouped (fun arr base ps -> Array.map (fun p -> arr.(base + p)) ps)

let extend st env row =
  let data = st.rel.Interned.data and base = row * st.rel.Interned.arity in
  let src = st.sources in
  let e = Array.make (Array.length src) 0 in
  for k = 0 to Array.length src - 1 do
    let s = src.(k) in
    e.(k) <- (if s >= 0 then data.(base + s) else env.(-s - 1))
  done;
  e

let hash_key karr = Array.fold_left (fun h x -> (h * 31) + x + 1) 17 karr

(* Join the selected rows [sel] with [envs].  [metered] accounts rows in
   the join counters; build sides above [radix_threshold] are
   grace-partitioned on the key hash and joined partition by
   partition. *)
let run ~metered budget radix_threshold pnode st sel envs =
  match envs with
  | [] -> []
  | _ ->
      let out = ref [] in
      let keyed = Array.length st.key_row > 0 in
      let probe rows envs =
        if metered then begin
          if keyed then Metrics.add build_rows_c (Array.length rows);
          Metrics.add probe_rows_c (List.length envs)
        end;
        let find = index st.rel st.key_row rows ~empty:[] ~add:List.cons in
        List.iter
          (fun env ->
            Budget.tick budget;
            List.iter
              (fun row ->
                Budget.tick budget;
                out := extend st env row :: !out)
              (find env 0 st.key_env))
          envs
      in
      if keyed && Array.length sel > radix_threshold then begin
        let nparts = radix_partitions in
        if metered then Metrics.add partitions_c nparts;
        Profile.set pnode "partitions" (float_of_int nparts);
        let rel = st.rel in
        let row_parts = Array.make nparts [] in
        Array.iter
          (fun row ->
            let h =
              hash_key (Array.map (fun p -> Interned.get rel row p) st.key_row)
              land (nparts - 1)
            in
            row_parts.(h) <- row :: row_parts.(h))
          sel;
        let env_parts = Array.make nparts [] in
        List.iter
          (fun env ->
            let h = hash_key (Array.map (fun e -> env.(e)) st.key_env) land (nparts - 1) in
            env_parts.(h) <- env :: env_parts.(h))
          envs;
        for p = 0 to nparts - 1 do
          match env_parts.(p) with
          | [] -> ()
          | envs -> probe (Array.of_list (List.rev row_parts.(p))) (List.rev envs)
        done
      end
      else probe sel envs;
      List.rev !out

let join st envs = run ~metered:false None default_radix_threshold None st (select st) envs

let count st envs =
  let find = index st.rel st.key_row (select st) ~empty:0 ~add:(fun _ c -> c + 1) in
  List.fold_left (fun acc env -> acc + find env 0 st.key_env) 0 envs

(* Environments from distinct joins are distinct: only dropping a slot
   can collapse two, and then each restriction is kept once. *)
let project layout onto envs =
  if Array.length onto = Array.length layout then envs
  else
    let pos = Array.map (bisect layout) onto in
    let seen = Hashtbl.create 64 in
    List.filter_map
      (fun env ->
        let e = Array.map (fun p -> env.(p)) pos in
        if Hashtbl.mem seen e then None else (Hashtbl.add seen e (); Some e))
      envs

(* One semi-join pass: filter sels.(i) down to the rows whose
   shared-variable values appear in sels.(j).  Rows dropped are
   accounted in [vplan_semijoin_rows_pruned_total]. *)
let semijoin_pair budget steps sels i j =
  let map_j = Hashtbl.create 8 in
  Array.iter (fun (v, p) -> Hashtbl.replace map_j v p) steps.(j).var_pos;
  let shared =
    Array.to_list steps.(i).var_pos
    |> List.filter_map (fun (v, pi) ->
           match Hashtbl.find_opt map_j v with
           | Some pj -> Some (pi, pj)
           | None -> None)
  in
  if shared <> [] then begin
    let before = Array.length sels.(i) in
    let reli = steps.(i).rel in
    let pis = Array.of_list (List.map fst shared) in
    let pjs = Array.of_list (List.map snd shared) in
    let mem = index steps.(j).rel pjs sels.(j) ~empty:false ~add:(fun _ _ -> true) in
    let kept = ref [] in
    Array.iter
      (fun row ->
        Budget.tick budget;
        if mem reli.Interned.data (row * reli.Interned.arity) pis then kept := row :: !kept)
      sels.(i);
    sels.(i) <- Array.of_list (List.rev !kept);
    Metrics.add semijoin_pruned_c (before - Array.length sels.(i))
  end

(* Pairwise semi-join reduction: for every atom pair sharing variables,
   keep only the rows of one atom whose shared-variable values occur in
   the other.  A forward sweep first propagates the selective atoms —
   the schedule puts bound constants first — into the later, larger
   selections; a backward sweep then propagates the shrunken tails into
   the build sides of the first joins. *)
let semijoin_reduce budget steps sels =
  Obs.phase "semijoin" (fun () ->
      let n = Array.length steps in
      for i = 0 to n - 2 do
        for j = i + 1 to n - 1 do
          semijoin_pair budget steps sels j i
        done
      done;
      for i = n - 2 downto 0 do
        for j = i + 1 to n - 1 do
          semijoin_pair budget steps sels i j
        done
      done)

(* Full Yannakakis semi-join program over a join tree.  [parent] and
   [removal] index into the compiled-order arrays; [removal] lists
   non-root nodes children-before-parents.  The bottom-up sweep makes
   every parent selection consistent with its whole subtree, the
   top-down sweep then makes every node consistent with the rest of the
   tree: by the running-intersection property the selections are
   globally dangling-free after 2(n-1) passes, where the pairwise
   heuristic spends O(n²) passes without that guarantee. *)
let yannakakis_reduce budget steps sels ~parent ~removal =
  Obs.phase "yannakakis" (fun () ->
      List.iter
        (fun c ->
          let p = parent.(c) in
          if p >= 0 then semijoin_pair budget steps sels p c)
        removal;
      List.iter
        (fun c ->
          let p = parent.(c) in
          if p >= 0 then semijoin_pair budget steps sels c p)
        (List.rev removal))

let head_var_count (head : Atom.t) =
  List.filter_map
    (function Term.Var x -> Some x | Term.Cst _ -> None)
    head.Atom.args
  |> Names.Sset.of_list |> Names.Sset.cardinal

(* The evaluation both entry points share: [finish var_ids envs] turns
   the satisfying environments into the result and its distinct row
   count; [empty] is the result when a body atom can match nothing.
   Variables are numbered in join order, so every step's layout is
   [0 .. k-1] and an environment is indexed by variable number. *)
let evaluate ?budget ?semijoin ?acyclic
    ?(radix_threshold = default_radix_threshold) ?profile ?estimate ~empty ~finish t
    (q : Query.t) =
  let head = q.Query.head in
  Obs.phase "hash_join" (fun () ->
  Profile.step profile ~op:"exec" ~name:head.Atom.pred (fun pnode ->
      (* The reduction policy must be settled before scheduling: the
         Yannakakis path joins in join-tree order, the general path in
         the evaluator's selectivity order.  The default mirrors the
         pairwise heuristic's trigger — reduce iff the head projects
         variables away — so acyclic bodies take the fast path exactly
         where the pairwise reduction used to run.  The body is
         classified only when that path can be taken. *)
      let body_vars =
        List.fold_left
          (fun s a -> Names.Sset.union s (Atom.var_set a))
          Names.Sset.empty q.Query.body
      in
      let semijoin_on =
        match semijoin with
        | Some b -> b
        | None -> head_var_count head < Names.Sset.cardinal body_vars
      in
      let jt =
        if Option.value acyclic ~default:semijoin_on then
          match Hypergraph.classify q.Query.body with
          | Hypergraph.Acyclic tr when Array.length tr.Hypergraph.atoms > 1 -> Some tr
          | Hypergraph.Acyclic _ | Hypergraph.Cyclic -> None
        else None
      in
      let ordered, tree_info =
        match jt with
        | Some tr ->
            let order = Hypergraph.join_order tr in
            let pos_of = Array.make (Array.length tr.Hypergraph.atoms) (-1) in
            List.iteri (fun k i -> pos_of.(i) <- k) order;
            let parent = Array.make (List.length order) (-1) in
            List.iteri
              (fun k i ->
                let p = tr.Hypergraph.parent.(i) in
                if p >= 0 then parent.(k) <- pos_of.(p))
              order;
            let removal = List.map (fun i -> pos_of.(i)) tr.Hypergraph.removal in
            ( List.map (fun i -> tr.Hypergraph.atoms.(i)) order,
              Some (parent, removal) )
        | None ->
            let size (a : Atom.t) = Interned.cardinality t a.Atom.pred in
            (Hypergraph.schedule ~size q.Query.body, None)
      in
      let var_ids = Hashtbl.create 16 in
      let var x =
        match Hashtbl.find_opt var_ids x with
        | Some v -> v
        | None ->
            let v = Hashtbl.length var_ids in
            Hashtbl.add var_ids x v;
            v
      in
      let _, rev_steps =
        List.fold_left
          (fun (layout, acc) a ->
            let st = compile t ~var layout a in
            (st.slots, st :: acc))
          ([||], []) ordered
      in
      let steps = Array.of_list (List.rev rev_steps) in
      if Array.exists (fun st -> st.dead) steps then begin
        (* a body atom can match nothing: the answer is empty *)
        Profile.set pnode "rows_in" 0.;
        Profile.set pnode "rows_out" 0.;
        empty
      end
      else begin
          (* Per-operator accounting (atom rendering, state counting,
             the estimate callback) only happens under [Some profile];
             the [None] path executes exactly the uninstrumented code. *)
          let atoms = Array.of_list ordered in
          let set_est node prefix =
            Option.iter (fun f -> Profile.set node "est_rows" (f prefix)) estimate
          in
          let set_rows node key n = Profile.set node key (float_of_int n) in
          let sum_sels sels =
            Array.fold_left (fun acc s -> acc + Array.length s) 0 sels
          in
          let sels =
            match profile with
            | None -> Array.map select steps
            | Some _ ->
                Array.mapi
                  (fun i st ->
                    let a = atoms.(i) in
                    Profile.step profile ~op:"select" ~name:a.Atom.pred
                      ~detail:(Atom.to_string a) (fun node ->
                        let sel = select st in
                        set_rows node "rows_in" st.rel.Interned.rows;
                        set_rows node "rows_out" (Array.length sel);
                        set_est node [ a ];
                        sel))
                  steps
          in
          (match tree_info with
          | Some (parent, removal) ->
              Metrics.incr acyclic_c;
              Profile.step profile ~op:"yannakakis" (fun node ->
                  (match node with
                  | Some _ -> set_rows node "rows_in" (sum_sels sels)
                  | None -> ());
                  yannakakis_reduce budget steps sels ~parent ~removal;
                  match node with
                  | Some _ -> set_rows node "rows_out" (sum_sels sels)
                  | None -> ())
          | None ->
              if semijoin_on && Array.length steps > 1 then
                Profile.step profile ~op:"semijoin" (fun node ->
                    (match node with
                    | Some _ -> set_rows node "rows_in" (sum_sels sels)
                    | None -> ());
                    semijoin_reduce budget steps sels;
                    match node with
                    | Some _ -> set_rows node "rows_out" (sum_sels sels)
                    | None -> ()));
          let join_step pnode i state =
            run ~metered:true budget radix_threshold pnode steps.(i) sels.(i) state
          in
          let state = ref [ [||] ] in
          (match profile with
          | None -> Array.iteri (fun i _ -> state := join_step None i !state) steps
          | Some _ ->
              let executed = ref [] in
              Array.iteri
                (fun i st ->
                  let a = atoms.(i) in
                  executed := a :: !executed;
                  let op =
                    if i = 0 then "scan"
                    else if Array.length st.key_row = 0 then "cross"
                    else "join"
                  in
                  Profile.step profile ~op ~name:a.Atom.pred
                    ~detail:(Atom.to_string a) (fun node ->
                      set_rows node "rows_in" (List.length !state);
                      set_rows node "build_rows" (Array.length sels.(i));
                      state := join_step node i !state;
                      set_rows node "rows_out" (List.length !state);
                      set_est node (List.rev !executed)))
                steps);
          let result, rows = finish var_ids !state in
          (match pnode with
          | Some _ ->
              set_rows pnode "rows_in" (List.length !state);
              set_rows pnode "rows_out" rows
          | None -> ());
          result
      end))

let slot var_ids x =
  match Hashtbl.find_opt var_ids x with
  | Some v -> v
  | None -> invalid_arg ("Exec.answers: unbound head variable " ^ x)

let answers ?budget ?semijoin ?acyclic ?radix_threshold ?profile ?estimate t
    (q : Query.t) =
  let head = q.Query.head in
  let arity = Atom.arity head in
  evaluate ?budget ?semijoin ?acyclic ?radix_threshold ?profile ?estimate
    ~empty:(Relation.empty arity) t q ~finish:(fun var_ids envs ->
      let tuples =
        List.map
          (fun env ->
            List.map
              (function
                | Term.Cst c -> c | Term.Var x -> Interned.const t env.(slot var_ids x))
              head.Atom.args)
          envs
      in
      let result = Relation.of_tuples arity tuples in
      (result, Relation.cardinality result))

let answers_ucq t u =
  List.fold_left
    (fun acc q -> Relation.union acc (answers t q))
    (Relation.empty (Ucq.head_arity u)) (Ucq.disjuncts u)

(* Head tuples stay int codes: variables read their environment cells,
   constants take [code]'s (stored as [-code - 1] in [cols]).  One row per
   environment, so a head projecting variables away can repeat rows. *)
let rows ~code t (q : Query.t) =
  let head = q.Query.head in
  let arity = Atom.arity head in
  evaluate ~empty:{ Interned.arity; rows = 0; data = [||] } t q
    ~finish:(fun var_ids envs ->
      let cols =
        Array.of_list
          (List.map
             (function Term.Cst c -> -code c - 1 | Term.Var x -> slot var_ids x)
             head.Atom.args)
      in
      let n = List.length envs in
      let data = Array.make (n * arity) 0 in
      List.iteri
        (fun row env ->
          Array.iteri
            (fun k c -> data.((row * arity) + k) <- (if c >= 0 then env.(c) else -c - 1))
            cols)
        envs;
      ({ Interned.arity; rows = n; data }, n))
