(* Tests for the MiniCon and bucket baselines, including the Example 4.2
   comparison with CoreCover (Section 4.3). *)

open Vplan
open Helpers

let test_minicon_carloc () =
  let open Car_loc_part in
  let r = Minicon.run ~query ~views () in
  check_bool "finds rewritings" true (r.rewritings <> []);
  (* every combination is a contained rewriting *)
  List.iter
    (fun p ->
      check_bool
        ("contained: " ^ Query.to_string p)
        true
        (Expansion.expansion_contained_in_query ~views ~query p))
    r.rewritings;
  (* MCDs are minimal (v4 has no existentials, so each MCD covers one
     subgoal): every combination partitions the 3 subgoals, so MiniCon
     never produces the 1-subgoal v4 rewriting that CoreCover finds *)
  List.iter
    (fun (p : Query.t) ->
      check_int "combinations have 3 subgoals" 3 (List.length p.body))
    r.rewritings;
  let cc = Corecover.gmrs ~query ~views () in
  check_int "CoreCover's GMR is smaller" 1
    (List.length (List.hd cc.rewritings).Query.body)

let test_minicon_mcds_are_minimal () =
  (* an MCD's covered set is minimal: dragging happens only through
     existential variables — check against Example 4.2's structure *)
  let open Example_4_2 in
  let r = Minicon.run ~query ~views () in
  (* view v produces one MCD per (a_i, b_i) pair: 3 of them; v1 and v2 one
     each: 5 total *)
  check_int "five MCDs" 5 (List.length r.mcds);
  List.iter
    (fun (m : Minicon.mcd) -> check_int "MCDs cover pairs" 2 (List.length m.covered))
    r.mcds

let test_minicon_redundant_vs_corecover () =
  (* Example 4.2: MiniCon cannot produce the 1-subgoal rewriting; all its
     combinations use 3 subgoals, while CoreCover finds q :- v(X,Y) *)
  let open Example_4_2 in
  let mc = Minicon.run ~query ~views () in
  check_bool "MiniCon finds combinations" true (mc.rewritings <> []);
  List.iter
    (fun (p : Query.t) ->
      check_bool "every MiniCon rewriting has 3 subgoals" true
        (List.length p.body = 3))
    mc.rewritings;
  let cc = Corecover.gmrs ~query ~views () in
  check_int "CoreCover's GMR has 1 subgoal" 1
    (List.length (List.hd cc.rewritings).Query.body)

let test_minicon_equivalent_subset () =
  let open Example_4_2 in
  let r = Minicon.run ~query ~views () in
  check_bool "equivalent subset nonempty (closed world)" true (r.equivalent <> []);
  List.iter
    (fun p ->
      check_bool "equivalent check sound" true
        (Expansion.is_equivalent_rewriting ~views ~query p))
    r.equivalent

let test_minicon_distinguished_condition () =
  (* a view hiding a distinguished variable cannot produce an MCD for the
     subgoal using it *)
  let query = q "q(X, Y) :- p(X, Y)." in
  let views = qs [ "v(X) :- p(X, Y)." ] in
  let r = Minicon.run ~query ~views () in
  check_int "no MCDs" 0 (List.length r.mcds);
  check_int "no rewritings" 0 (List.length r.rewritings)

let test_minicon_existential_drag () =
  (* mapping Z to a view existential drags both subgoals into one MCD *)
  let query = q "q(X, Y) :- p(X, Z), r(Z, Y)." in
  let views = qs [ "w(A, B) :- p(A, Z), r(Z, B)." ] in
  let r = Minicon.run ~query ~views () in
  check_int "one MCD" 1 (List.length r.mcds);
  check_int "covers both subgoals" 2 (List.length (List.hd r.mcds).Minicon.covered);
  check_int "one rewriting" 1 (List.length r.rewritings)

let test_bucket_carloc () =
  let open Car_loc_part in
  let r = Oracle.Bucket.run ~mode:`Equivalent ~query ~views () in
  check_int "three buckets" 3 (List.length r.buckets);
  List.iter
    (fun bucket -> check_bool "buckets nonempty" true (bucket <> []))
    r.buckets;
  check_bool "rewritings found" true (r.rewritings <> []);
  List.iter
    (fun p ->
      check_bool "equivalent rewriting" true
        (Expansion.is_equivalent_rewriting ~views ~query p))
    r.rewritings

let test_bucket_contained_mode () =
  let open Car_loc_part in
  let r = Oracle.Bucket.run ~mode:`Contained ~query ~views () in
  List.iter
    (fun p ->
      check_bool "contained" true (Expansion.expansion_contained_in_query ~views ~query p))
    r.rewritings;
  let re = Oracle.Bucket.run ~mode:`Equivalent ~query ~views () in
  check_bool "equivalent subset of contained" true
    (List.length re.rewritings <= List.length r.rewritings)

let test_bucket_no_views () =
  let query = q "q(X) :- p(X, Y)." in
  let r = Oracle.Bucket.run ~mode:`Equivalent ~query ~views:[] () in
  check_int "empty bucket" 0 (List.length (List.hd r.buckets));
  check_int "no rewritings" 0 (List.length r.rewritings)

let test_bucket_distinguished_filtering () =
  (* bucket entries must not map a distinguished query variable to a view
     existential *)
  let query = q "q(X, Y) :- p(X, Y)." in
  let views = qs [ "v(X) :- p(X, Y)."; "w(A, B) :- p(A, B)." ] in
  let r = Oracle.Bucket.run ~mode:`Equivalent ~query ~views () in
  let bucket = List.hd r.buckets in
  check_int "only w qualifies" 1 (List.length bucket);
  check_bool "entry is w" true
    (List.for_all (fun (a : Atom.t) -> a.pred = "w") bucket)

let test_bucket_vs_corecover_agreement () =
  (* both must agree on rewriting existence for the paper's examples *)
  List.iter
    (fun (query, views) ->
      let b = Oracle.Bucket.run ~mode:`Equivalent ~query ~views () in
      let c = Corecover.gmrs ~query ~views () in
      check_bool "existence agreement" true ((b.rewritings <> []) = (c.rewritings <> [])))
    [
      (Car_loc_part.query, Car_loc_part.views);
      (Example_4_1.query, Example_4_1.views);
      (Example_6_1.query, Example_6_1.views);
    ]

let suite =
  [
    ("MiniCon car-loc-part", `Quick, test_minicon_carloc);
    ("MiniCon MCDs Example 4.2", `Quick, test_minicon_mcds_are_minimal);
    ("MiniCon redundancy vs CoreCover", `Quick, test_minicon_redundant_vs_corecover);
    ("MiniCon equivalent subset", `Quick, test_minicon_equivalent_subset);
    ("MiniCon distinguished condition", `Quick, test_minicon_distinguished_condition);
    ("MiniCon existential drag", `Quick, test_minicon_existential_drag);
    ("bucket car-loc-part", `Quick, test_bucket_carloc);
    ("bucket contained mode", `Quick, test_bucket_contained_mode);
    ("bucket without views", `Quick, test_bucket_no_views);
    ("bucket distinguished filtering", `Quick, test_bucket_distinguished_filtering);
    ("bucket vs CoreCover existence", `Quick, test_bucket_vs_corecover_agreement);
  ]
