(* Tests for tuple-cores, set cover, CoreCover / CoreCover*, rewriting
   classification, the LMR lattice and the naive oracle. *)

open Vplan
open Helpers

(* ---------------- tuple-cores ---------------- *)

let core_strings ~query ~views =
  List.map
    (fun (tv, (core : Tuple_core.t)) ->
      (Atom.to_string tv.View_tuple.atom, List.map Atom.to_string core.subgoals))
    (tuples_with_cores ~query views)

let test_table2_tuple_cores () =
  (* Table 2 of the paper, verbatim *)
  let open Example_4_1 in
  let cores = core_strings ~query ~views in
  let find atom = List.assoc atom cores in
  Alcotest.(check (list string)) "v1(X,Z)" [ "a(X,Z)"; "a(Z,Z)" ] (find "v1(X,Z)");
  Alcotest.(check (list string)) "v1(Z,Z)" [ "a(Z,Z)" ] (find "v1(Z,Z)");
  Alcotest.(check (list string)) "v2(Z,Y)" [ "b(Z,Y)" ] (find "v2(Z,Y)")

let test_carloc_tuple_cores () =
  (* Section 4.1's description: v3 has an empty core, the others cover
     exactly their defining subgoals. *)
  let open Car_loc_part in
  let cores = core_strings ~query ~views in
  let find atom = List.assoc atom cores in
  Alcotest.(check (list string)) "v3 empty" [] (find "v3(S)");
  Alcotest.(check (list string)) "v1"
    [ "car(M,anderson)"; "loc(anderson,C)" ] (find "v1(M,anderson,C)");
  Alcotest.(check (list string)) "v2" [ "part(S,M,C)" ] (find "v2(S,M,C)");
  Alcotest.(check (list string)) "v4"
    [ "car(M,anderson)"; "loc(anderson,C)"; "part(S,M,C)" ] (find "v4(M,anderson,C,S)");
  Alcotest.(check (list string)) "v5 same as v1"
    (find "v1(M,anderson,C)") (find "v5(M,anderson,C)")

let test_tuple_core_uniqueness () =
  let checks =
    [
      (Car_loc_part.query, Car_loc_part.views);
      (Example_4_1.query, Example_4_1.views);
      (Example_3_1.query, Example_3_1.views);
      (Example_6_1.query, Example_6_1.views);
    ]
  in
  List.iter
    (fun (query, views) ->
      let query = Minimize.minimize query in
      List.iter
        (fun tv ->
          check_int
            ("unique core for " ^ Atom.to_string tv.View_tuple.atom)
            1
            (List.length (Oracle.Tuple_core.compute_all_maximal ~query tv)))
        (View_tuple.compute ~query views))
    checks

let test_tuple_core_mapping_is_witness () =
  (* every core covers the subgoals the enumerator's witnessing mapping
     sends into the view tuple's expansion.  In the second instance Z is
     free and maps to the view's existential Y, so the identity is no
     witness. *)
  let checks =
    [
      (Example_4_1.query, Example_4_1.views);
      (q "q(X) :- a(X, Z), b(Z).", qs [ "v(X) :- a(X, Y), b(Y)." ]);
    ]
  in
  List.iter
    (fun (query, views) ->
      let query = Minimize.minimize query in
      List.iter
        (fun (tv, (core : Tuple_core.t)) ->
          let witness = Oracle.Tuple_core.compute ~query tv in
          check_int "same cover as the enumerator" witness.mask core.mask;
          let expansion, _ = Oracle.Tuple_core.expansion ~avoid:(Query.var_set query) tv in
          List.iter
            (fun g ->
              check_bool
                ("image of " ^ Atom.to_string g ^ " in expansion")
                true
                (List.exists (Atom.equal (Atom.apply witness.mapping g)) expansion))
            core.subgoals)
        (tuples_with_cores ~query views))
    checks;
  (* the free-variable instance has a nonempty core *)
  let query = q "q(X) :- a(X, Z), b(Z)." in
  Alcotest.(check (list string)) "v(X) covers both" [ "a(X,Z)"; "b(Z)" ]
    (List.assoc "v(X)" (core_strings ~query ~views:(qs [ "v(X) :- a(X, Y), b(Y)." ])))

let test_distinguished_blocks_core () =
  (* a view hiding a distinguished query variable cannot cover the
     subgoals using it (property 2 of Definition 4.1) *)
  let query = q "q(X, Y) :- p(X, Y)." in
  let views = qs [ "v(X) :- p(X, Y)." ] in
  let cores = core_strings ~query ~views in
  Alcotest.(check (list string)) "empty core" [] (List.assoc "v(X)" cores)

let test_existential_closure_drags_subgoals () =
  (* property 3: if Z maps to a view existential, all subgoals using Z
     must be covered together *)
  let query = q "q(X, Y) :- p(X, Z), r(Z, Y)." in
  let views = qs [ "v(X) :- p(X, Z)."; "w(A, B) :- p(A, Z), r(Z, B)." ] in
  let cores = core_strings ~query ~views in
  (* v hides Z, and r(Z,Y) cannot come along into v's expansion *)
  Alcotest.(check (list string)) "v cannot cover p alone" [] (List.assoc "v(X)" cores);
  Alcotest.(check (list string)) "w covers both" [ "p(X,Z)"; "r(Z,Y)" ]
    (List.assoc "w(X,Y)" cores)

(* ---------------- allocation guards ---------------- *)

(* Minor words allocated by [f] (run once first, so nothing lazy is
   counted), which is deterministic where wall-clock time under a loaded
   machine is not. *)
let words f =
  ignore (f ());
  let w0 = Gc.minor_words () in
  let result = f () in
  (result, Gc.minor_words () -. w0)

(* An 8-subgoal star query over a star catalog of 40 views, one hidden
   variable per view, so cores have existentials to place. *)
let star_catalog () =
  let inst =
    Generator.generate
      {
        Generator.default with
        shape = Generator.Star;
        num_views = 40;
        nondistinguished_per_view = 1;
      }
  in
  (Minimize.minimize inst.Generator.query, Catalog.create_exn inst.views)

(* Tuple-cores write each tuple's expansion into scratch arrays reused
   across the tuples: a tuple allocates its returned core and its list
   cells, not an expansion, a target list or a search record. *)
let test_cores_allocation_guard () =
  let query, cat = star_catalog () in
  let code, coded = View_tuple.compute_coded ~query (Catalog.view_classes cat) in
  let n = List.length coded in
  check_bool "enough tuples to measure" true (n >= 10);
  let cores, w = words (fun () -> Tuple_core.cores code coded) in
  check_bool "some core has an existential to place" true
    (List.exists2
       (fun (tv : View_tuple.coded) (c : Tuple_core.t) ->
         View_tuple.Pattern.num_vars tv.pattern > View_tuple.Pattern.num_head_vars tv.pattern
         && not (Tuple_core.is_empty c))
       coded cores);
  check_bool
    (Printf.sprintf "at most 150 words per tuple (%.0f words, %d tuples)" w n)
    true
    (w /. float_of_int n <= 150.)

(* A catalog compiles its representatives once: matching through its
   classes allocates less than matching the same classes compiled in
   the call. *)
let test_catalog_matching_allocation_guard () =
  let query, cat = star_catalog () in
  let members = View_tuple.Classes.members (Catalog.view_classes cat) in
  let atoms (_, coded) = List.map (fun (tv : View_tuple.coded) -> tv.tuple.atom) coded in
  let resident, w_resident =
    words (fun () -> View_tuple.compute_coded ~query (Catalog.view_classes cat))
  in
  let in_call, w_in_call =
    words (fun () -> View_tuple.compute_coded ~query (View_tuple.Classes.compile members))
  in
  check_bool "same tuples" true (List.equal Atom.equal (atoms resident) (atoms in_call));
  check_bool
    (Printf.sprintf "resident %.0f words < compiled in the call %.0f words" w_resident w_in_call)
    true (w_resident < w_in_call)

(* Compiling a view builds its int array and a variable table sized by
   its argument count, not lists of variables and codes: on a 200-atom
   chain view (402 argument occurrences, 201 variables) compiling costs
   takes 5.6 words per occurrence, where a compile building those lists
   takes 17; the guard allows 12. *)
let test_view_compile_allocation_guard () =
  let n = 200 in
  let x i = Term.Var ("X" ^ string_of_int i) in
  let view =
    Query.make_exn
      (Atom.make "v" [ x 0; x n ])
      (List.init n (fun i -> Atom.make ("p" ^ string_of_int i) [ x i; x (i + 1) ]))
  in
  let occurrences = 2 + (2 * n) in
  let classes, w = words (fun () -> View_tuple.Classes.compile [ [ view ] ]) in
  check_bool "compiled" true (View_tuple.Classes.members classes = [ [ view ] ]);
  check_bool
    (Printf.sprintf "at most 12 words per occurrence (%.0f words, %d occurrences)" w
       occurrences)
    true
    (w /. float_of_int occurrences <= 12.)

(* ---------------- set cover ---------------- *)

let test_minimum_covers () =
  let sets = [| 0b0011; 0b1100; 0b1111; 0b0110 |] in
  let covers = Set_cover.minimum_covers ~universe:0b1111 sets in
  Alcotest.(check (list (list int))) "single minimum" [ [ 2 ] ] covers;
  let no_single = [| 0b0011; 0b1100; 0b0110 |] in
  let covers = Set_cover.minimum_covers ~universe:0b1111 no_single in
  Alcotest.(check (list (list int))) "one pair" [ [ 0; 1 ] ] covers

let test_minimum_covers_multiple () =
  let sets = [| 0b01; 0b10; 0b01; 0b10 |] in
  let covers = Set_cover.minimum_covers ~universe:0b11 sets in
  check_int "all four pairs" 4 (List.length covers);
  List.iter
    (fun c -> check_bool "is cover" true (Set_cover.is_cover ~universe:0b11 sets c))
    covers

let test_no_cover () =
  Alcotest.(check (list (list int))) "uncoverable" []
    (Set_cover.minimum_covers ~universe:0b111 [| 0b011 |])

let test_irredundant_covers () =
  let sets = [| 0b011; 0b110; 0b101; 0b111 |] in
  let covers = Set_cover.irredundant_covers ~universe:0b111 sets in
  List.iter
    (fun c ->
      check_bool "irredundant" true (Set_cover.is_irredundant ~universe:0b111 sets c))
    covers;
  (* {0,1}, {0,2}, {1,2}, {3} are the irredundant covers *)
  check_int "count" 4 (List.length covers)

let test_empty_universe () =
  Alcotest.(check (list (list int))) "empty universe" [ [] ]
    (Set_cover.minimum_covers ~universe:0 [| 0b1 |])

(* ---------------- CoreCover ---------------- *)

let rewriting_strings result =
  List.map Query.to_string result.Corecover.rewritings |> List.sort String.compare

let test_corecover_carloc () =
  let open Car_loc_part in
  let r = verified ~query ~views (Corecover.gmrs ~query ~views ()) in
  Alcotest.(check (list string)) "P4 is the unique GMR"
    [ "q1(S,C) :- v4(M,anderson,C,S)" ] (rewriting_strings r);
  check_int "4 view classes" 4 r.stats.num_view_classes;
  let all = verified ~query ~views (Corecover.all_minimal ~query ~views ()) in
  Alcotest.(check (list string)) "P2 and P4 are the minimal rewritings"
    [ "q1(S,C) :- v1(M,anderson,C), v2(S,M,C)"; "q1(S,C) :- v4(M,anderson,C,S)" ]
    (rewriting_strings all);
  Alcotest.(check (list string)) "v3 is the filter candidate" [ "v3(S)" ]
    (List.map (fun tv -> Atom.to_string tv.View_tuple.atom) all.filters)

let test_corecover_example41 () =
  let open Example_4_1 in
  let r = verified ~query ~views (Corecover.gmrs ~query ~views ()) in
  Alcotest.(check (list string)) "unique GMR"
    [ "q(X,Y) :- v1(X,Z), v2(Z,Y)" ] (rewriting_strings r)

let test_corecover_example42 () =
  let open Example_4_2 in
  let r = verified ~query ~views (Corecover.gmrs ~query ~views ()) in
  Alcotest.(check (list string)) "single-subgoal GMR"
    [ "q(X,Y) :- v(X,Y)" ] (rewriting_strings r)

let test_corecover_example31 () =
  let open Example_3_1 in
  let r = verified ~query ~views (Corecover.gmrs ~query ~views ()) in
  Alcotest.(check (list string)) "P1 is the GMR"
    [ "q(X,Y,Z) :- v(X,Y,Z,c)" ] (rewriting_strings r)

let test_corecover_no_rewriting () =
  let query = q "q(X, Y) :- p(X, Y), r(Y, X)." in
  let views = qs [ "v(A, B) :- p(A, B)." ] in
  let r = Corecover.gmrs ~query ~views () in
  Alcotest.(check (list string)) "no rewriting" [] (rewriting_strings r);
  check_bool "has_rewriting agrees" false (Corecover.has_rewriting ~query ~views)

let test_corecover_grouping_invariant () =
  (* grouping views must not change the set of rewritings modulo
     representative choice: compare subgoal counts and count *)
  let open Car_loc_part in
  let with_g = Corecover.gmrs ~query ~views () in
  let without_g =
    Corecover.gmrs ~view_classes:(View_tuple.Classes.of_views views) ~query ~views ()
  in
  check_int "same GMR size"
    (List.length (List.hd with_g.rewritings).Query.body)
    (List.length (List.hd without_g.rewritings).Query.body)

let test_corecover_matches_naive () =
  let cases =
    [
      (Car_loc_part.query, Car_loc_part.views);
      (Example_4_1.query, Example_4_1.views);
      (Example_3_1.query, Example_3_1.views);
      (Example_gmr_not_cmr.query, Example_gmr_not_cmr.views);
    ]
  in
  List.iter
    (fun (query, views) ->
      let cc = verified ~query ~views (Corecover.gmrs ~query ~views ()) in
      let naive = Oracle.Naive.gmrs ~query ~views in
      check_bool "both found or neither" true
        (cc.rewritings <> [] = (naive <> []));
      match (cc.rewritings, naive) with
      | p :: _, n :: _ ->
          check_int "same GMR size" (List.length n.Query.body) (List.length p.Query.body)
      | _ -> ())
    cases

let test_has_rewriting_positive () =
  check_bool "car-loc-part has rewriting" true
    (Corecover.has_rewriting ~query:Car_loc_part.query ~views:Car_loc_part.views)

(* ---------------- classification and lattice ---------------- *)

let test_classify_carloc () =
  let open Car_loc_part in
  check_bool "P1 is an LMR" true (Classify.is_lmr ~views ~query p1);
  check_bool "P2 is an LMR" true (Classify.is_lmr ~views ~query p2);
  check_bool "P3 is not an LMR" false (Classify.is_lmr ~views ~query p3);
  check_bool "P3 is minimal as a query" true (Classify.is_minimal_query p3);
  let p3_lmr = Classify.lmr_of ~views ~query p3 in
  check_int "P3 reduces to two subgoals" 2 (List.length p3_lmr.Query.body)

let test_classify_cmr () =
  let open Car_loc_part in
  let lmrs = [ p1; p2; p4; p5 ] in
  check_bool "P2 is a CMR" true (Classify.is_cmr_among ~lmrs p2);
  check_bool "P1 is not a CMR" false (Classify.is_cmr_among ~lmrs p1)

let test_gmr_not_cmr () =
  (* Section 3.2: P1 is a GMR but not a CMR; P2 is both *)
  let open Example_gmr_not_cmr in
  check_bool "P1 rewriting" true (Classify.is_rewriting ~views ~query p1);
  check_bool "P2 rewriting" true (Classify.is_rewriting ~views ~query p2);
  check_bool "P1 not CMR" false (Classify.is_cmr_among ~lmrs:[ p1; p2 ] p1);
  check_bool "P2 is CMR" true (Classify.is_cmr_among ~lmrs:[ p1; p2 ] p2);
  check_bool "P1 is GMR" true (Classify.is_gmr_among ~candidates:[ p1; p2 ] p1)

let test_lattice_example31 () =
  (* Figure 2(b): the three LMRs form a chain P1 < P2 < P3 *)
  let open Example_3_1 in
  let lattice = Lattice.of_lmrs [ p1; p2; p3 ] in
  check_int "three nodes" 3 (Array.length lattice.Lattice.nodes);
  check_int "two Hasse edges" 2 (List.length lattice.Lattice.edges);
  check_bool "chain" true (Lattice.is_chain lattice);
  check_int "one bottom" 1 (List.length (Lattice.bottoms lattice))

let test_lattice_carloc () =
  (* Figure 2(a): with v1 and v5 identified, P1 and P5 collapse; P2 and P4
     sit at the bottom *)
  let open Car_loc_part in
  let lattice = Lattice.of_lmrs ~views [ p1; p2; p4; p5 ] in
  check_int "P1 and P5 collapse to one node" 3 (Array.length lattice.Lattice.nodes);
  let bottoms = Lattice.bottoms lattice in
  check_int "two bottoms (P2, P4)" 2 (List.length bottoms);
  check_bool "not a chain" false (Lattice.is_chain lattice)

let test_lemma31_subgoal_counts () =
  (* Lemma 3.1: containment between LMRs bounds subgoal counts *)
  let open Car_loc_part in
  let lmrs = [ p1; p2; p4; p5 ] in
  List.iter
    (fun pa ->
      List.iter
        (fun pb ->
          if Containment.is_contained pa pb then
            check_bool "contained LMR has no more subgoals" true
              (List.length pa.Query.body <= List.length pb.Query.body))
        lmrs)
    lmrs

(* ---------------- Lemma 3.2 normalization ---------------- *)

let test_lemma_3_2_p1_to_p2 () =
  (* the paper's worked instance: P1 transforms into P2 *)
  let open Car_loc_part in
  match Normalize.to_view_tuple_form ~views ~query p1 with
  | None -> Alcotest.fail "P1 is a rewriting"
  | Some p' ->
      check_bool "isomorphic to P2" true (Containment.isomorphic p' p2);
      check_bool "contained in P1" true (Containment.is_contained p' p1);
      check_bool "still a rewriting" true
        (Expansion.is_equivalent_rewriting ~views ~query p')

let test_lemma_3_2_atoms_are_view_tuples () =
  let open Car_loc_part in
  let tuples =
    View_tuple.compute ~query:(Minimize.minimize query) views
    |> List.map (fun tv -> tv.View_tuple.atom)
  in
  List.iter
    (fun p ->
      match Normalize.to_view_tuple_form ~views ~query p with
      | None -> Alcotest.fail "rewriting expected"
      | Some p' ->
          List.iter
            (fun atom ->
              check_bool
                (Atom.to_string atom ^ " is a view tuple")
                true
                (List.exists (Atom.equal atom) tuples))
            p'.Query.body)
    [ p1; p3; p5 ]

let test_lemma_3_2_rejects_non_rewriting () =
  let open Car_loc_part in
  let broken = q "q1(S, C) :- v2(S, M, C)." in
  check_bool "not a rewriting" true
    (Normalize.to_view_tuple_form ~views ~query broken = None)

(* ---------------- view-set minimization ---------------- *)

let test_relevant_views () =
  let open Car_loc_part in
  let relevant = Oracle.View_selection.relevant_views ~query ~views in
  (* v3 has an empty tuple-core and cannot cover anything *)
  Alcotest.(check (slist string String.compare))
    "v3 filtered out" [ "v1"; "v2"; "v4"; "v5" ]
    (List.map View.name relevant)

let test_minimal_answering_set () =
  let open Car_loc_part in
  (match Oracle.View_selection.minimal_answering_set ~query ~views with
  | None -> Alcotest.fail "expected an answering set"
  | Some kept ->
      check_int "a single view suffices (v4 or v1+v2)" 1 (List.length kept);
      check_bool "still answers" true (Oracle.View_selection.is_answering_set ~query kept));
  (* without v4, the minimum is the pair {v1 or v5, v2} *)
  let without_v4 = List.filter (fun v -> View.name v <> "v4") views in
  match Oracle.View_selection.minimal_answering_set ~query ~views:without_v4 with
  | None -> Alcotest.fail "expected an answering set"
  | Some kept -> check_int "two views needed" 2 (List.length kept)

let test_minimal_answering_none () =
  let query = q "q(X, Y) :- p(X, Y), r(Y, X)." in
  let views = qs [ "v(A, B) :- p(A, B)." ] in
  check_bool "no answering set" true
    (Oracle.View_selection.minimal_answering_set ~query ~views = None)

(* ---------------- naive oracle ---------------- *)

let test_naive_sizes () =
  let open Car_loc_part in
  let of_size k = List.length (Oracle.Naive.rewritings_of_size ~query ~views k) in
  check_int "no 0-ary rewriting" 0 (of_size 0);
  check_int "one 1-subgoal rewriting" 1 (of_size 1);
  check_bool "2-subgoal rewritings exist" true (of_size 2 > 0)

let suite =
  [
    ("Table 2 tuple-cores", `Quick, test_table2_tuple_cores);
    ("car-loc-part tuple-cores", `Quick, test_carloc_tuple_cores);
    ("tuple-core uniqueness (Lemma 4.2)", `Quick, test_tuple_core_uniqueness);
    ("tuple-core mapping witness", `Quick, test_tuple_core_mapping_is_witness);
    ("distinguished variable blocks core", `Quick, test_distinguished_blocks_core);
    ("existential closure (property 3)", `Quick, test_existential_closure_drags_subgoals);
    ("tuple-cores allocate no expansion per tuple", `Quick, test_cores_allocation_guard);
    ("catalog classes match without compiling", `Quick, test_catalog_matching_allocation_guard);
    ("view compilation allocates no lists", `Quick, test_view_compile_allocation_guard);
    ("minimum covers", `Quick, test_minimum_covers);
    ("multiple minimum covers", `Quick, test_minimum_covers_multiple);
    ("no cover", `Quick, test_no_cover);
    ("irredundant covers", `Quick, test_irredundant_covers);
    ("empty universe", `Quick, test_empty_universe);
    ("CoreCover car-loc-part", `Quick, test_corecover_carloc);
    ("CoreCover Example 4.1", `Quick, test_corecover_example41);
    ("CoreCover Example 4.2", `Quick, test_corecover_example42);
    ("CoreCover Example 3.1", `Quick, test_corecover_example31);
    ("CoreCover no rewriting", `Quick, test_corecover_no_rewriting);
    ("CoreCover grouping invariant", `Quick, test_corecover_grouping_invariant);
    ("CoreCover matches naive oracle", `Quick, test_corecover_matches_naive);
    ("has_rewriting", `Quick, test_has_rewriting_positive);
    ("classify car-loc-part", `Quick, test_classify_carloc);
    ("classify CMR", `Quick, test_classify_cmr);
    ("GMR that is not a CMR", `Quick, test_gmr_not_cmr);
    ("lattice Example 3.1 chain", `Quick, test_lattice_example31);
    ("lattice car-loc-part", `Quick, test_lattice_carloc);
    ("Lemma 3.1 subgoal counts", `Quick, test_lemma31_subgoal_counts);
    ("naive oracle sizes", `Quick, test_naive_sizes);
    ("Lemma 3.2: P1 to P2", `Quick, test_lemma_3_2_p1_to_p2);
    ("Lemma 3.2: outputs view tuples", `Quick, test_lemma_3_2_atoms_are_view_tuples);
    ("Lemma 3.2: rejects non-rewritings", `Quick, test_lemma_3_2_rejects_non_rewriting);
    ("relevant views", `Quick, test_relevant_views);
    ("minimal answering set", `Quick, test_minimal_answering_set);
    ("no answering set", `Quick, test_minimal_answering_none);
  ]
