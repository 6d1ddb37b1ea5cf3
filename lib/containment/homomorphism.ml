open Vplan_cq

(* Index target atoms by predicate name so that each pattern atom only
   tries compatible candidates. *)
let index_targets targets =
  List.fold_left
    (fun m (a : Atom.t) ->
      let existing = match Names.Smap.find_opt a.pred m with Some l -> l | None -> [] in
      Names.Smap.add a.pred (a :: existing) m)
    Names.Smap.empty targets

(* Order pattern atoms most-constrained-first: fewer candidate targets and
   more constants/bound variables first.  A static heuristic is enough; the
   dynamic pruning happens through unification failure. *)
let order_patterns ~seed index patterns =
  let score (a : Atom.t) =
    let candidates =
      match Names.Smap.find_opt a.pred index with Some l -> List.length l | None -> 0
    in
    let bound =
      List.length
        (List.filter
           (function
             | Term.Cst _ -> true
             | Term.Var x -> Subst.mem x seed)
           a.Atom.args)
    in
    (candidates, -bound)
  in
  List.stable_sort (fun a b -> compare (score a) (score b)) patterns

let iter_all ?budget ?(seed = Subst.empty) patterns targets ~f =
  let index = index_targets targets in
  let patterns = order_patterns ~seed index patterns in
  let stopped = ref false in
  (* resolve the option once; the tick itself is a single closure call *)
  let tick =
    match budget with
    | None -> fun () -> ()
    | Some b -> fun () -> Vplan_core.Budget.check b
  in
  let rec go subst = function
    | [] -> if f subst = `Stop then stopped := true
    | (a : Atom.t) :: rest ->
        let candidates =
          match Names.Smap.find_opt a.pred index with Some l -> l | None -> []
        in
        let try_candidate cand =
          if not !stopped then begin
            tick ();
            match Atom.unify subst a cand with
            | Some subst' -> go subst' rest
            | None -> ()
          end
        in
        List.iter try_candidate candidates
  in
  go seed patterns

exception Found of Subst.t

let backtracking_find ?budget ~seed patterns targets =
  match
    iter_all ?budget ~seed patterns targets ~f:(fun s -> raise (Found s))
  with
  | () -> None
  | exception Found s -> Some s

(* ---- Acyclic fast path -------------------------------------------------

   When the pattern body is α-acyclic, the homomorphism decision
   problem is polynomial: dynamic programming over the GYO join tree
   (Yannakakis on the candidate-match "relations").  Each tree node's
   candidates are the substitutions unifying its atom with some target
   atom (extending the seed); a bottom-up semi-join sweep keeps only
   parent candidates joinable with every child, so a non-empty root
   set is equivalent to the existence of a homomorphism, and a witness
   is assembled top-down by picking compatible candidates — the
   running-intersection property makes edge-local agreement globally
   consistent.  Cyclic patterns (or the defensive impossible case of a
   merge conflict) report [None]: not applicable, use backtracking. *)

module Hypergraph = Vplan_hypergraph.Hypergraph
module Metrics = Vplan_obs.Metrics

let fastpath_c = Metrics.counter "vplan_containment_fastpath_total"
let fallback_c = Metrics.counter "vplan_containment_fallback_total"

exception Conflict

let tree_find ?budget ~seed patterns targets =
  match Hypergraph.classify patterns with
  | Hypergraph.Cyclic -> None
  | Hypergraph.Acyclic tree -> (
      let tick =
        match budget with
        | None -> fun () -> ()
        | Some b -> fun () -> Vplan_core.Budget.check b
      in
      let n = Array.length tree.Hypergraph.atoms in
      if n = 0 then Some (Some seed)
      else begin
        let index = index_targets targets in
        (* per-node candidates: seed extended over the atom's variables *)
        let cands = Array.make n [] in
        let dead = ref false in
        for i = 0 to n - 1 do
          if not !dead then begin
            let a = tree.Hypergraph.atoms.(i) in
            let cs =
              match Names.Smap.find_opt a.Atom.pred index with
              | None -> []
              | Some ts ->
                  List.filter_map
                    (fun t ->
                      tick ();
                      Atom.unify seed a t)
                    ts
            in
            if cs = [] then dead := true else cands.(i) <- cs
          end
        done;
        if !dead then Some None
        else begin
          let shared c p =
            Names.Sset.elements
              (Names.Sset.inter
                 (Atom.var_set tree.Hypergraph.atoms.(c))
                 (Atom.var_set tree.Hypergraph.atoms.(p)))
          in
          let project vars s =
            List.map
              (fun x ->
                match Subst.find x s with
                | Some t -> t
                | None -> raise Conflict)
              vars
          in
          (* bottom-up: keep parent candidates joinable with the child *)
          List.iter
            (fun c ->
              let p = tree.Hypergraph.parent.(c) in
              if p >= 0 && not !dead then begin
                let sh = shared c p in
                let keys = Hashtbl.create 64 in
                List.iter
                  (fun s -> Hashtbl.replace keys (project sh s) ())
                  cands.(c);
                cands.(p) <-
                  List.filter
                    (fun s ->
                      tick ();
                      Hashtbl.mem keys (project sh s))
                    cands.(p);
                if cands.(p) = [] then dead := true
              end)
            tree.Hypergraph.removal;
          if !dead then Some None
          else begin
            (* top-down witness assembly: the bottom-up sweep guarantees
               every surviving parent candidate has a compatible
               candidate in each child *)
            let chosen = Array.make n Subst.empty in
            chosen.(tree.Hypergraph.root) <- List.hd cands.(tree.Hypergraph.root);
            List.iter
              (fun c ->
                let p = tree.Hypergraph.parent.(c) in
                let sh = shared c p in
                let want = project sh chosen.(p) in
                match
                  List.find_opt
                    (fun s ->
                      tick ();
                      project sh s = want)
                    cands.(c)
                with
                | Some s -> chosen.(c) <- s
                | None -> raise Conflict)
              (List.rev tree.Hypergraph.removal);
            let merged =
              Array.fold_left
                (fun acc s ->
                  List.fold_left
                    (fun acc (x, t) ->
                      match Subst.extend x t acc with
                      | Some acc -> acc
                      | None -> raise Conflict)
                    acc (Subst.bindings s))
                seed chosen
            in
            Some (Some merged)
          end
        end
      end)

let tree_find ?budget ~seed patterns targets =
  try tree_find ?budget ~seed patterns targets with Conflict -> None

let find ?budget ?(fastpath = true) ?(seed = Subst.empty) patterns targets =
  if fastpath then
    match tree_find ?budget ~seed patterns targets with
    | Some r ->
        Metrics.incr fastpath_c;
        r
    | None ->
        Metrics.incr fallback_c;
        backtracking_find ?budget ~seed patterns targets
  else backtracking_find ?budget ~seed patterns targets

let exists ?budget ?fastpath ?seed patterns targets =
  find ?budget ?fastpath ?seed patterns targets <> None

let find_all ?budget ?(seed = Subst.empty) ?limit patterns targets =
  let results = ref [] in
  let count = ref 0 in
  iter_all ?budget ~seed patterns targets ~f:(fun s ->
      if not (List.exists (Subst.equal s) !results) then begin
        results := s :: !results;
        incr count
      end;
      match limit with Some l when !count >= l -> `Stop | _ -> `Continue);
  List.rev !results
