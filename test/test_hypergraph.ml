(* GYO reduction and join trees (Vplan_hypergraph): classification of
   the known acyclic/cyclic families, join-tree invariants (including
   running intersection), and the fast paths built on top — Yannakakis
   execution and join-tree containment — against their general
   oracles. *)

open Vplan
open Qcheck_gens
module Gen = QCheck2.Gen

let parse = Parser.parse_rule_exn

let seed =
  match int_of_string_opt (try Sys.getenv "QCHECK_SEED" with Not_found -> "") with
  | Some s -> s
  | None -> 0x5eed

let make_test ?(count = 250) ~name gen print prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| seed |])
    (QCheck2.Test.make ~count ~name ~print gen prop)

let var name i = Term.Var (name ^ string_of_int i)

let path_body k =
  List.init k (fun i -> Atom.make "r" [ var "X" i; var "X" (i + 1) ])

let star_body k =
  List.init k (fun i -> Atom.make "r" [ Term.Var "C"; var "X" (i + 1) ])

let cycle_body k =
  List.init k (fun i -> Atom.make "r" [ var "X" i; var "X" ((i + 1) mod k) ])

let clique_body k =
  List.concat
    (List.init k (fun i ->
         List.filteri (fun j _ -> j > i) (List.init k Fun.id)
         |> List.map (fun j -> Atom.make "r" [ var "X" i; var "X" j ])))

(* -- classification of the known families --------------------------- *)

let test_known_families () =
  Alcotest.(check bool) "empty body acyclic" true (Hypergraph.is_acyclic []);
  Alcotest.(check bool) "single atom acyclic" true
    (Hypergraph.is_acyclic [ Atom.make "r" [ var "X" 0; var "X" 1 ] ]);
  let carloc =
    (parse "q1(S, C) :- car(M, anderson), loc(anderson, C), part(S, M, C).")
      .Query.body
  in
  Alcotest.(check bool) "car-loc-part acyclic" true (Hypergraph.is_acyclic carloc);
  let triangle =
    [
      Atom.make "r" [ Term.Var "X"; Term.Var "Y" ];
      Atom.make "s" [ Term.Var "Y"; Term.Var "Z" ];
      Atom.make "t" [ Term.Var "Z"; Term.Var "X" ];
    ]
  in
  Alcotest.(check bool) "triangle cyclic" false (Hypergraph.is_acyclic triangle);
  (* a covering hyperedge turns the triangle acyclic (α-acyclicity is
     not monotone under adding atoms) *)
  let covered =
    Atom.make "big" [ Term.Var "X"; Term.Var "Y"; Term.Var "Z" ] :: triangle
  in
  Alcotest.(check bool) "covered triangle acyclic" true
    (Hypergraph.is_acyclic covered);
  (* duplicate and constant-only atoms are ears *)
  let dup = Atom.make "r" [ var "X" 0; var "X" 1 ] in
  Alcotest.(check bool) "duplicates acyclic" true (Hypergraph.is_acyclic [ dup; dup ]);
  Alcotest.(check bool) "constant-only atom acyclic" true
    (Hypergraph.is_acyclic
       [ Atom.make "r" [ Term.Cst (Term.Int 1) ]; dup ])

(* -- join-tree invariants ------------------------------------------- *)

let tree_of body =
  match Hypergraph.classify body with
  | Hypergraph.Acyclic t -> t
  | Hypergraph.Cyclic -> Alcotest.fail "expected acyclic body"

let test_tree_invariants () =
  let body = path_body 5 in
  let t = tree_of body in
  let n = List.length body in
  let order = Hypergraph.join_order t in
  Alcotest.(check (list int)) "join_order is a permutation"
    (List.init n Fun.id) (List.sort compare order);
  Alcotest.(check int) "root has no parent" (-1) t.Hypergraph.parent.(t.Hypergraph.root);
  Alcotest.(check int) "removal lists all non-roots" (n - 1)
    (List.length t.Hypergraph.removal);
  (* every parent precedes its children in join_order *)
  let pos = Array.make n 0 in
  List.iteri (fun i node -> pos.(node) <- i) order;
  List.iter
    (fun c ->
      let p = t.Hypergraph.parent.(c) in
      Alcotest.(check bool) "parent before child" true (pos.(p) < pos.(c)))
    t.Hypergraph.removal;
  (* tree_order permutes the body; cyclic bodies have none *)
  (match Hypergraph.tree_order body with
  | None -> Alcotest.fail "path has a tree order"
  | Some atoms ->
      Alcotest.(check int) "tree_order same length" n (List.length atoms);
      List.iter
        (fun a ->
          Alcotest.(check bool) "tree_order atom from body" true
            (List.exists (Atom.equal a) body))
        atoms);
  Alcotest.(check bool) "cyclic body has no tree order" true
    (Hypergraph.tree_order (cycle_body 4) = None)

let test_pp_tree () =
  let t = tree_of (path_body 3) in
  let s = Hypergraph.tree_to_string t in
  (* deterministic rendering: one line per atom, two-space indents *)
  Alcotest.(check int) "one line per atom" 3
    (List.length (String.split_on_char '\n' s))

(* -- QCheck: GYO agrees with the known families --------------------- *)

let gyo_known_families =
  let gen = Gen.(pair (int_range 3 8) (int_range 3 6)) in
  make_test ~count:60 ~name:"GYO: paths/stars acyclic, cycles/cliques cyclic" gen
    (fun (k, c) -> Printf.sprintf "k=%d c=%d" k c)
    (fun (k, c) ->
      Hypergraph.is_acyclic (path_body k)
      && Hypergraph.is_acyclic (star_body k)
      && (not (Hypergraph.is_acyclic (cycle_body c)))
      && not (Hypergraph.is_acyclic (clique_body c)))

(* Running intersection: for every variable, the tree nodes containing
   it form a connected subtree — exactly one of them is the root of
   that sub-forest (its parent misses the variable or it is the global
   root). *)
let running_intersection =
  make_test ~name:"GYO join tree has the running-intersection property"
    (gen_body ~max_atoms:4)
    (fun body -> String.concat ", " (List.map Atom.to_string body))
    (fun body ->
      match Hypergraph.classify body with
      | Hypergraph.Cyclic -> true
      | Hypergraph.Acyclic t ->
          let atoms = t.Hypergraph.atoms in
          let n = Array.length atoms in
          if n = 0 then true
          else begin
            let vars =
              Array.to_list atoms |> List.concat_map Atom.vars
              |> List.sort_uniq String.compare
            in
            List.for_all
              (fun x ->
                let holds i = List.mem x (Atom.vars atoms.(i)) in
                let roots = ref 0 in
                for i = 0 to n - 1 do
                  if holds i then begin
                    let p = t.Hypergraph.parent.(i) in
                    if p < 0 || not (holds p) then incr roots
                  end
                done;
                !roots = 1)
              vars
          end)

(* -- QCheck: Yannakakis = pairwise = plain hash join = Eval --------- *)

let yannakakis_oracle =
  let gen = Gen.pair gen_query gen_database in
  make_test ~count:150 ~name:"Exec: all semijoin/acyclic combos match Eval" gen
    (fun (q, db) -> print_query q ^ " db " ^ string_of_int (Database.total_size db))
    (fun (q, db) ->
      let expected = Oracle.Eval.answers db q in
      let t = Interned.of_database db in
      List.for_all
        (fun (semijoin, acyclic) ->
          Relation.equal expected (Exec.answers ?semijoin ?acyclic t q))
        [
          (None, None);
          (None, Some true);
          (None, Some false);
          (Some true, Some true);
          (Some true, Some false);
          (Some false, Some true);
          (Some false, Some false);
        ])

(* -- QCheck: join-tree containment = backtracking containment ------- *)

let containment_fastpath_agrees =
  let gen = Gen.pair gen_query gen_query in
  make_test ~name:"containment: join-tree DP = backtracking" gen
    (fun (q1, q2) -> print_query q1 ^ " vs " ^ print_query q2)
    (fun (q1, q2) ->
      Containment.is_contained ~fastpath:true q1 q2
      = Containment.is_contained ~fastpath:false q1 q2)

(* The DP's witness is a genuine containment mapping even when it
   differs from the backtracking one. *)
let fastpath_witness_valid =
  let gen = Gen.pair gen_query gen_query in
  make_test ~name:"containment: DP witness maps atoms into the target" gen
    (fun (q1, q2) -> print_query q1 ^ " vs " ^ print_query q2)
    (fun (q1, q2) ->
      match Homomorphism.find ~fastpath:true q1.Query.body q2.Query.body with
      | None -> true
      | Some s ->
          List.for_all
            (fun a ->
              let image = Atom.apply s a in
              List.exists (Atom.equal image) q2.Query.body)
            q1.Query.body)

let suite =
  [
    Alcotest.test_case "known families" `Quick test_known_families;
    Alcotest.test_case "join-tree invariants" `Quick test_tree_invariants;
    Alcotest.test_case "pp_tree shape" `Quick test_pp_tree;
    gyo_known_families;
    running_intersection;
    yannakakis_oracle;
    containment_fastpath_agrees;
    fastpath_witness_valid;
  ]
