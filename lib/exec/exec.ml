open Vplan_cq
open Vplan_relational
module Budget = Vplan_core.Budget
module Obs = Vplan_obs.Obs
module Metrics = Vplan_obs.Metrics
module Profile = Vplan_obs.Profile
module Hypergraph = Vplan_hypergraph.Hypergraph

(* Hash-join evaluation of conjunctive queries over an Interned.t.

   Atoms are joined in the same static order as the backtracking
   evaluator ([Eval.schedule]); each step is a build/probe hash join
   keyed on the variables shared between the accumulated environments
   and the next atom.  Per-atom selections (constants, repeated
   variables) are applied in one pass before joining; oversized build
   sides are radix-partitioned; a pairwise semi-join reduction trims
   selections before any join when the head projects most variables
   away. *)

let build_rows_c = Metrics.counter "vplan_join_build_rows"
let probe_rows_c = Metrics.counter "vplan_join_probe_rows"
let partitions_c = Metrics.counter "vplan_join_partitions_total"
let acyclic_c = Metrics.counter "vplan_acyclic_queries_total"
let semijoin_pruned_c = Metrics.counter "vplan_semijoin_rows_pruned_total"

let default_radix_threshold = 65536

(* 2^4 partitions per oversized build: enough to cut a build side well
   below the threshold again without scattering tiny partitions. *)
let radix_partitions = 16

type carg =
  | Const of int  (* interned constant *)
  | Var of int  (* variable number *)
  | Unmatchable  (* constant absent from the database: no tuple matches *)

type catom = {
  rel : Interned.rel;
  const_checks : (int * int) array;  (* (pos, code) *)
  dup_checks : (int * int) array;  (* (pos, first pos of same var) *)
  key_pairs : (int * int) array;  (* (var, pos): vars bound by earlier atoms *)
  new_vars : (int * int) array;  (* (var, pos): vars first bound here *)
  var_pos : (int * int) array;  (* (var, first pos) for every distinct var *)
}

(* Compilation happens in scheduled order: [bound] accumulates the
   variables the already-compiled prefix binds, which is exactly what
   splits an atom's variables into probe keys and fresh bindings. *)
let compile t var_id bound (a : Atom.t) =
  match Interned.find t a.Atom.pred with
  | None -> None
  | Some rel when rel.Interned.arity <> Atom.arity a -> None
  | Some rel ->
      let args =
        Array.of_list
          (List.map
             (function
               | Term.Cst c -> (
                   match Interned.const_id t c with
                   | Some id -> Const id
                   | None -> Unmatchable)
               | Term.Var x -> Var (var_id x))
             a.Atom.args)
      in
      if
        Array.exists
          (function Unmatchable -> true | Const _ | Var _ -> false)
          args
      then None
      else begin
        let first = Hashtbl.create 8 in
        let const_checks = ref [] and dup_checks = ref [] in
        Array.iteri
          (fun pos arg ->
            match arg with
            | Const id -> const_checks := (pos, id) :: !const_checks
            | Var v -> (
                match Hashtbl.find_opt first v with
                | Some p0 -> dup_checks := (pos, p0) :: !dup_checks
                | None -> Hashtbl.add first v pos)
            | Unmatchable -> ())
          args;
        let key_pairs = ref [] and new_vars = ref [] in
        Array.iteri
          (fun pos arg ->
            match arg with
            | Var v when Hashtbl.find first v = pos ->
                if Hashtbl.mem bound v then key_pairs := (v, pos) :: !key_pairs
                else new_vars := (v, pos) :: !new_vars
            | Var _ | Const _ | Unmatchable -> ())
          args;
        List.iter (fun (v, _) -> Hashtbl.replace bound v ()) !new_vars;
        let key_pairs = Array.of_list (List.rev !key_pairs) in
        let new_vars = Array.of_list (List.rev !new_vars) in
        Some
          {
            rel;
            const_checks = Array.of_list (List.rev !const_checks);
            dup_checks = Array.of_list (List.rev !dup_checks);
            key_pairs;
            new_vars;
            var_pos = Array.append key_pairs new_vars;
          }
      end

(* One pass over the stored relation applying the env-independent checks
   (constants, repeated variables); the surviving row numbers feed every
   later build, probe and semi-join. *)
let select ca =
  let rel = ca.rel in
  let out = ref [] in
  for row = rel.Interned.rows - 1 downto 0 do
    if
      Array.for_all
        (fun (pos, code) -> Interned.get rel row pos = code)
        ca.const_checks
      && Array.for_all
           (fun (pos, p0) -> Interned.get rel row pos = Interned.get rel row p0)
           ca.dup_checks
    then out := row :: !out
  done;
  Array.of_list !out

let hash_key karr = Array.fold_left (fun h x -> (h * 31) + x + 1) 17 karr

let filter_rows f rows =
  let out = ref [] in
  Array.iter (fun r -> if f r then out := r :: !out) rows;
  Array.of_list (List.rev !out)

(* One semi-join pass: filter sels.(i) down to the rows whose
   shared-variable values appear in sels.(j).  The common single shared
   variable hashes raw int codes; only wider keys pay for boxed
   arrays.  Rows dropped are accounted in
   [vplan_semijoin_rows_pruned_total]. *)
let semijoin_pair budget catoms sels i j =
  let map_j = Hashtbl.create 8 in
  Array.iter (fun (v, p) -> Hashtbl.replace map_j v p) catoms.(j).var_pos;
  let shared =
    Array.to_list catoms.(i).var_pos
    |> List.filter_map (fun (v, pi) ->
           match Hashtbl.find_opt map_j v with
           | Some pj -> Some (pi, pj)
           | None -> None)
    |> Array.of_list
  in
  if Array.length shared > 0 then begin
    let before = Array.length sels.(i) in
    let reli = catoms.(i).rel and relj = catoms.(j).rel in
    if Array.length shared = 1 then begin
      let keys = Hashtbl.create (max 16 (Array.length sels.(j))) in
      let pi, pj = shared.(0) in
      Array.iter
        (fun row -> Hashtbl.replace keys (Interned.get relj row pj) ())
        sels.(j);
      sels.(i) <-
        filter_rows
          (fun row ->
            Budget.tick budget;
            Hashtbl.mem keys (Interned.get reli row pi))
          sels.(i)
    end
    else begin
      let keys = Hashtbl.create (max 16 (Array.length sels.(j))) in
      Array.iter
        (fun row ->
          let key = Array.map (fun (_, pj) -> Interned.get relj row pj) shared in
          Hashtbl.replace keys key ())
        sels.(j);
      sels.(i) <-
        filter_rows
          (fun row ->
            Budget.tick budget;
            Hashtbl.mem keys
              (Array.map (fun (pi, _) -> Interned.get reli row pi) shared))
          sels.(i)
    end;
    Metrics.add semijoin_pruned_c (before - Array.length sels.(i))
  end

(* Pairwise semi-join reduction: for every atom pair sharing variables,
   keep only the rows of one atom whose shared-variable values occur in
   the other.  A forward sweep first propagates the selective atoms —
   the schedule puts bound constants first — into the later, larger
   selections; a backward sweep then propagates the shrunken tails into
   the build sides of the first joins. *)
let semijoin_reduce budget catoms sels =
  Obs.phase "semijoin" (fun () ->
      let n = Array.length catoms in
      for i = 0 to n - 2 do
        for j = i + 1 to n - 1 do
          semijoin_pair budget catoms sels j i
        done
      done;
      for i = n - 2 downto 0 do
        for j = i + 1 to n - 1 do
          semijoin_pair budget catoms sels i j
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
let yannakakis_reduce budget catoms sels ~parent ~removal =
  Obs.phase "yannakakis" (fun () ->
      List.iter
        (fun c ->
          let p = parent.(c) in
          if p >= 0 then semijoin_pair budget catoms sels p c)
        removal;
      List.iter
        (fun c ->
          let p = parent.(c) in
          if p >= 0 then semijoin_pair budget catoms sels c p)
        (List.rev removal))

let extend ca env row =
  let e = Array.copy env in
  Array.iter (fun (v, p) -> e.(v) <- Interned.get ca.rel row p) ca.new_vars;
  e

(* Build a hash table over the selected rows keyed on the shared
   variables, then probe with every accumulated environment.  The
   single-variable key is the common case and probes an int-keyed
   table directly. *)
let build_probe budget ca rows envs out =
  Metrics.add build_rows_c (Array.length rows);
  Metrics.add probe_rows_c (List.length envs);
  let rel = ca.rel in
  let kp = ca.key_pairs in
  if Array.length kp = 1 then begin
    let v0, p0 = kp.(0) in
    let tbl = Hashtbl.create (max 16 (Array.length rows)) in
    Array.iter
      (fun row ->
        let key = Interned.get rel row p0 in
        let prev = match Hashtbl.find_opt tbl key with Some l -> l | None -> [] in
        Hashtbl.replace tbl key (row :: prev))
      rows;
    List.iter
      (fun env ->
        Budget.tick budget;
        match Hashtbl.find_opt tbl env.(v0) with
        | None -> ()
        | Some matches ->
            List.iter
              (fun row ->
                Budget.tick budget;
                out := extend ca env row :: !out)
              matches)
      envs
  end
  else begin
    let row_key row = Array.map (fun (_, p) -> Interned.get rel row p) kp in
    let env_key env = Array.map (fun (v, _) -> env.(v)) kp in
    let tbl = Hashtbl.create (max 16 (Array.length rows)) in
    Array.iter
      (fun row ->
        let key = row_key row in
        let prev = match Hashtbl.find_opt tbl key with Some l -> l | None -> [] in
        Hashtbl.replace tbl key (row :: prev))
      rows;
    List.iter
      (fun env ->
        Budget.tick budget;
        match Hashtbl.find_opt tbl (env_key env) with
        | None -> ()
        | Some matches ->
            List.iter
              (fun row ->
                Budget.tick budget;
                out := extend ca env row :: !out)
              matches)
      envs
  end

let step budget radix_threshold pnode ca sel state =
  match state with
  | [] -> []
  | _ ->
      let out = ref [] in
      if Array.length ca.key_pairs = 0 then begin
        (* no shared variable: selection-filtered cross product *)
        Metrics.add probe_rows_c (List.length state);
        List.iter
          (fun env ->
            Budget.tick budget;
            Array.iter
              (fun row ->
                Budget.tick budget;
                out := extend ca env row :: !out)
              sel)
          state
      end
      else if Array.length sel > radix_threshold then begin
        (* grace/radix partitioning: split both sides on the key hash so
           each build fits comfortably, then join partition by partition *)
        let nparts = radix_partitions in
        Metrics.add partitions_c nparts;
        Profile.set_partitions pnode nparts;
        let rel = ca.rel in
        let kp = ca.key_pairs in
        let row_parts = Array.make nparts [] in
        Array.iter
          (fun row ->
            let h =
              hash_key (Array.map (fun (_, p) -> Interned.get rel row p) kp)
              land (nparts - 1)
            in
            row_parts.(h) <- row :: row_parts.(h))
          sel;
        let env_parts = Array.make nparts [] in
        List.iter
          (fun env ->
            let h =
              hash_key (Array.map (fun (v, _) -> env.(v)) kp) land (nparts - 1)
            in
            env_parts.(h) <- env :: env_parts.(h))
          state;
        for p = 0 to nparts - 1 do
          match env_parts.(p) with
          | [] -> ()
          | envs ->
              build_probe budget ca
                (Array.of_list (List.rev row_parts.(p)))
                (List.rev envs) out
        done
      end
      else build_probe budget ca sel state out;
      List.rev !out

let head_var_count (head : Atom.t) =
  List.filter_map
    (function Term.Var x -> Some x | Term.Cst _ -> None)
    head.Atom.args
  |> Names.Sset.of_list |> Names.Sset.cardinal

(* The evaluation both entry points share: [finish var_ids envs] turns
   the satisfying environments into the result and its distinct row
   count; [empty] is the result when a body atom can match nothing. *)
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
         where the pairwise reduction used to run. *)
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
        match acyclic with
        | Some false -> None
        | Some true | None -> (
            match Hypergraph.classify q.Query.body with
            | Hypergraph.Acyclic tr when Array.length tr.Hypergraph.atoms > 1 ->
                Some tr
            | Hypergraph.Acyclic _ | Hypergraph.Cyclic -> None)
      in
      let yk_on =
        match jt with
        | None -> false
        | Some _ -> ( match acyclic with Some b -> b | None -> semijoin_on)
      in
      let ordered, tree_info =
        match jt with
        | Some tr when yk_on ->
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
        | Some _ | None ->
            (Eval.schedule (Interned.database t) q.Query.body, None)
      in
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
      let bound = Hashtbl.create 16 in
      let compiled =
        List.fold_left
          (fun acc a ->
            match acc with
            | None -> None
            | Some acc -> (
                match compile t var_id bound a with
                | Some ca -> Some (ca :: acc)
                | None -> None))
          (Some []) ordered
      in
      match compiled with
      | None ->
          (* a body atom names a missing relation: the answer is empty *)
          Profile.set_rows_in pnode 0;
          Profile.set_rows_out pnode 0;
          empty
      | Some rev_catoms ->
          let catoms = Array.of_list (List.rev rev_catoms) in
          (* Per-operator accounting (atom rendering, state counting,
             the estimate callback) only happens under [Some profile];
             the [None] path executes exactly the uninstrumented code. *)
          let atoms = Array.of_list ordered in
          let est_of prefix =
            match estimate with Some f -> f prefix | None -> Float.nan
          in
          let sum_sels sels =
            Array.fold_left (fun acc s -> acc + Array.length s) 0 sels
          in
          let sels =
            match profile with
            | None -> Array.map select catoms
            | Some _ ->
                Array.mapi
                  (fun i ca ->
                    let a = atoms.(i) in
                    Profile.step profile ~op:"select" ~name:a.Atom.pred
                      ~detail:(Atom.to_string a) (fun node ->
                        let sel = select ca in
                        Profile.set_rows_in node ca.rel.Interned.rows;
                        Profile.set_rows_out node (Array.length sel);
                        Profile.set_est_rows node (est_of [ a ]);
                        sel))
                  catoms
          in
          (match tree_info with
          | Some (parent, removal) ->
              Metrics.incr acyclic_c;
              Profile.step profile ~op:"yannakakis" (fun node ->
                  (match node with
                  | Some _ -> Profile.set_rows_in node (sum_sels sels)
                  | None -> ());
                  yannakakis_reduce budget catoms sels ~parent ~removal;
                  match node with
                  | Some _ -> Profile.set_rows_out node (sum_sels sels)
                  | None -> ())
          | None ->
              if semijoin_on && Array.length catoms > 1 then
                Profile.step profile ~op:"semijoin" (fun node ->
                    (match node with
                    | Some _ -> Profile.set_rows_in node (sum_sels sels)
                    | None -> ());
                    semijoin_reduce budget catoms sels;
                    match node with
                    | Some _ -> Profile.set_rows_out node (sum_sels sels)
                    | None -> ()));
          let state = ref [ Array.make (max 1 !n_vars) (-1) ] in
          (match profile with
          | None ->
              Array.iteri
                (fun i ca ->
                  state := step budget radix_threshold None ca sels.(i) !state)
                catoms
          | Some _ ->
              let executed = ref [] in
              Array.iteri
                (fun i ca ->
                  let a = atoms.(i) in
                  executed := a :: !executed;
                  let op =
                    if i = 0 then "scan"
                    else if Array.length ca.key_pairs = 0 then "cross"
                    else "join"
                  in
                  Profile.step profile ~op ~name:a.Atom.pred
                    ~detail:(Atom.to_string a) (fun node ->
                      Profile.set_rows_in node (List.length !state);
                      Profile.set_build_rows node (Array.length sels.(i));
                      state :=
                        step budget radix_threshold node ca sels.(i) !state;
                      Profile.set_rows_out node (List.length !state);
                      Profile.set_est_rows node (est_of (List.rev !executed))))
                catoms);
          let result, rows = finish var_ids !state in
          (match pnode with
          | Some _ ->
              Profile.set_rows_in pnode (List.length !state);
              Profile.set_rows_out pnode rows
          | None -> ());
          result))

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

(* Head tuples stay int codes: variables read their environment cells,
   constants take [code]'s (stored as [-code - 1] in [cols]).  One row per
   environment, so a head projecting variables away can repeat rows. *)
let rows ?profile ?estimate ~code t (q : Query.t) =
  let head = q.Query.head in
  let arity = Atom.arity head in
  evaluate ?profile ?estimate ~empty:{ Interned.arity; rows = 0; data = [||] } t q
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
