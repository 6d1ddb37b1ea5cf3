(* The resident rewriting service: canonical cache keys (Normalize),
   catalog generations, the LRU cache, and hit-vs-fresh equivalence —
   including under concurrent dispatch. *)

open Vplan
open Helpers
module Gen = QCheck2.Gen

let seed =
  match int_of_string_opt (try Sys.getenv "QCHECK_SEED" with Not_found -> "") with
  | Some s -> s
  | None -> 0x5eed

let make_qcheck ?(count = 100) ~name gen print prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| seed |])
    (QCheck2.Test.make ~count ~name ~print gen prop)

let key_exn query =
  match Normalize.cache_key query with
  | Some k -> k
  | None -> Alcotest.fail "cache_key returned None on a small query"

(* ------------------------------------------------------------------ *)
(* Canonicalization                                                    *)

(* Regression (ISSUE 3): canonicalization must be deterministic under
   subgoal reordering — a permuted alpha-variant of Example 4.1 must
   produce the same cache key. *)
let canonical_key_permuted_example41 () =
  let original = Example_4_1.query in
  (* Z renamed to W, body reversed and rotated *)
  let permuted = q "q(X, Y) :- b(W, Y), a(X, W), a(W, W)." in
  check_bool "same key" true (String.equal (key_exn original) (key_exn permuted));
  let renamed_head = q "q(U, V) :- a(W, W), b(W, V), a(U, W)." in
  check_bool "same key under head renaming too" true
    (String.equal (key_exn original) (key_exn renamed_head))

let canonical_key_separates () =
  let q1 = q "q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)." in
  (* same predicate multiset, different join structure *)
  let q2 = q "q(X, Y) :- a(X, Z), a(Z, X), b(Z, Y)." in
  check_bool "different keys" false (String.equal (key_exn q1) (key_exn q2));
  (* head order matters: q(X,Y) vs q(Y,X) are different queries *)
  let q3 = q "q(Y, X) :- a(X, Z), a(Z, Z), b(Z, Y)." in
  check_bool "head order separates" false (String.equal (key_exn q1) (key_exn q3))

let canonicalize_sigma_witnesses () =
  let query = Car_loc_part.query in
  match Normalize.canonicalize query with
  | None -> Alcotest.fail "canonicalize failed"
  | Some (canon, sigma) ->
      check_bool "sigma maps the query onto its canonical form" true
        (Containment.isomorphic (Query.apply sigma query) canon);
      (* idempotence: the canonical form is its own canonical form *)
      check_bool "idempotent" true (String.equal (key_exn canon) (key_exn query))

let canonical_key_qcheck =
  let gen = Qcheck_gens.gen_query in
  make_qcheck ~count:250 ~name:"cache key invariant under renaming + permutation"
    gen Qcheck_gens.print_query (fun query ->
      let vars = Query.vars query in
      let sigma =
        Subst.of_list (List.mapi (fun i x -> (x, Term.Var ("Y" ^ string_of_int i))) vars)
      in
      let renamed = Query.apply sigma query in
      let permuted =
        Query.make_exn renamed.Query.head (List.rev renamed.Query.body)
      in
      match (Normalize.cache_key query, Normalize.cache_key permuted) with
      | Some k1, Some k2 -> String.equal k1 k2
      | None, None -> true
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* LRU cache                                                           *)

let lru_eviction () =
  let c = Rewrite_cache.create ~capacity:2 () in
  Rewrite_cache.add c "a" 1;
  Rewrite_cache.add c "b" 2;
  (* touch "a" so "b" is least recently used *)
  check_bool "a hits" true (Rewrite_cache.find c "a" = Some 1);
  Rewrite_cache.add c "c" 3;
  check_bool "b evicted" true (Rewrite_cache.find c "b" = None);
  check_bool "a survives" true (Rewrite_cache.find c "a" = Some 1);
  check_bool "c present" true (Rewrite_cache.find c "c" = Some 3);
  let k = Rewrite_cache.counters c in
  check_int "hits" 3 k.Rewrite_cache.hits;
  check_int "misses" 1 k.Rewrite_cache.misses;
  check_int "evictions" 1 k.Rewrite_cache.evictions;
  check_int "size" 2 k.Rewrite_cache.size

let lru_replace_is_not_eviction () =
  let c = Rewrite_cache.create ~capacity:2 () in
  Rewrite_cache.add c "a" 1;
  Rewrite_cache.add c "a" 2;
  check_bool "replaced" true (Rewrite_cache.find c "a" = Some 2);
  check_int "no eviction" 0 (Rewrite_cache.counters c).Rewrite_cache.evictions;
  check_int "size 1" 1 (Rewrite_cache.counters c).Rewrite_cache.size

(* [retain] walks the recency list once: the survivors keep their
   order, only [size] moves, and the capacity still bounds later adds. *)
let lru_retain () =
  let c = Rewrite_cache.create ~capacity:4 () in
  List.iter (fun (k, v) -> Rewrite_cache.add c k v) [ ("a", 1); ("b", 2); ("c", 3); ("d", 4) ];
  (* recency, most recent first: b d c a *)
  ignore (Rewrite_cache.find c "d");
  ignore (Rewrite_cache.find c "b");
  let before = Rewrite_cache.counters c in
  Rewrite_cache.retain c (fun k v -> k <> "c" && v <> 1);
  let after = Rewrite_cache.counters c in
  check_int "size" 2 after.Rewrite_cache.size;
  check_int "no eviction counted" before.Rewrite_cache.evictions
    after.Rewrite_cache.evictions;
  check_int "hits unchanged" before.Rewrite_cache.hits after.Rewrite_cache.hits;
  check_int "misses unchanged" before.Rewrite_cache.misses after.Rewrite_cache.misses;
  (* two adds fill the capacity again; a third evicts the least recent
     survivor, d, then b: their order was kept *)
  Rewrite_cache.add c "e" 5;
  Rewrite_cache.add c "f" 6;
  check_int "refilled" 4 (Rewrite_cache.counters c).Rewrite_cache.size;
  check_int "no eviction yet" 0 (Rewrite_cache.counters c).Rewrite_cache.evictions;
  Rewrite_cache.add c "g" 7;
  check_int "capacity honoured" 4 (Rewrite_cache.counters c).Rewrite_cache.size;
  check_int "one eviction" 1 (Rewrite_cache.counters c).Rewrite_cache.evictions;
  Rewrite_cache.add c "h" 8;
  check_bool "d went first" true (Rewrite_cache.find c "d" = None);
  check_bool "then b" true (Rewrite_cache.find c "b" = None);
  check_bool "dropped entries stay gone" true
    (Rewrite_cache.find c "a" = None && Rewrite_cache.find c "c" = None);
  List.iter
    (fun (k, v) -> check_bool ("kept " ^ k) true (Rewrite_cache.find c k = Some v))
    [ ("e", 5); ("f", 6); ("g", 7); ("h", 8) ];
  (* retaining everything and nothing *)
  Rewrite_cache.retain c (fun _ _ -> true);
  check_int "keep all" 4 (Rewrite_cache.counters c).Rewrite_cache.size;
  Rewrite_cache.retain c (fun _ _ -> false);
  check_int "keep none" 0 (Rewrite_cache.counters c).Rewrite_cache.size;
  Rewrite_cache.add c "i" 9;
  check_bool "usable after emptying" true (Rewrite_cache.find c "i" = Some 9)

(* ------------------------------------------------------------------ *)
(* Catalog generations                                                 *)

let sorted_classes classes =
  List.map (fun cls -> List.sort Query.compare cls) classes
  |> List.sort (fun c1 c2 ->
         match (c1, c2) with
         | q1 :: _, q2 :: _ -> Query.compare q1 q2
         | _ -> compare c1 c2)

let same_partition c1 c2 = sorted_classes c1 = sorted_classes c2
let classes cat = View_tuple.Classes.members (Catalog.view_classes cat)

let catalog_incremental_add () =
  let all = Car_loc_part.views in
  let first, rest = (List.filteri (fun i _ -> i < 2) all, List.filteri (fun i _ -> i >= 2) all) in
  let scratch = Catalog.create_exn all in
  let grown =
    match Catalog.add_views (Catalog.create_exn first) rest with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  check_int "generation bumped" 2 (Catalog.generation grown);
  check_int "all views present" (List.length all) (Catalog.num_views grown);
  check_bool "incremental = from scratch (as classes, in order)" true
    (classes scratch = classes grown);
  (* v1 and v5 are equivalent: 5 views, 4 classes *)
  check_int "classes" 4 (Catalog.num_classes scratch)

let catalog_remove () =
  let cat = Catalog.create_exn Car_loc_part.views in
  let without =
    match Catalog.remove_views cat [ "v1" ] with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  check_int "generation bumped" 2 (Catalog.generation without);
  check_int "member gone" 4 (Catalog.num_views without);
  let scratch = Catalog.create_exn (List.filter (fun v -> View.name v <> "v1") Car_loc_part.views) in
  check_bool "partition equal to from-scratch grouping" true
    (same_partition (classes without) (classes scratch));
  check_bool "in the same class and member order" true (classes without = classes scratch);
  (match Catalog.remove_views cat [ "nope" ] with
  | Ok _ -> Alcotest.fail "removing an unknown view must fail"
  | Error _ -> ());
  match Catalog.add_views cat [ q "v1(A) :- car(A, B)." ] with
  | Ok _ -> Alcotest.fail "adding a duplicate name must fail"
  | Error _ -> ()

(* An add checks only its own names: against each other and against the
   members, each duplicate reported by name. *)
let catalog_add_duplicates () =
  let cat = Catalog.create_exn Car_loc_part.views in
  let fails what expected vs =
    match Catalog.add_views cat vs with
    | Ok _ -> Alcotest.fail (what ^ " must fail")
    | Error e -> Alcotest.(check string) what expected e
  in
  fails "two new views sharing a name" "duplicate view name w"
    [ q "w(A) :- car(A, B)."; q "u(A) :- loc(A, B)."; q "w(A) :- loc(A, B)." ];
  fails "a member's name" "duplicate view name v2"
    [ q "w(A) :- car(A, B)."; q "v2(A) :- car(A, B)." ];
  match Catalog.add_views cat [ q "w(A) :- car(A, B)."; q "u(A) :- loc(A, B)." ] with
  | Ok grown -> check_int "distinct new names are added" 7 (Catalog.num_views grown)
  | Error e -> Alcotest.fail e

let catalog_classes_drive_corecover () =
  let cat = Catalog.create_exn Car_loc_part.views in
  let with_catalog =
    Corecover.gmrs ~view_classes:(Catalog.view_classes cat) ~query:Car_loc_part.query
      ~views:(Catalog.views cat) ()
  in
  let without = Corecover.gmrs ~query:Car_loc_part.query ~views:Car_loc_part.views () in
  check_bool "same rewritings" true
    (List.for_all2 Query.equal with_catalog.Corecover.rewritings
       without.Corecover.rewritings)

(* A catalog grown by [add_views], shrunk by [remove_views] (class
   representatives included, so their classes fall to their next
   members) and restored from its persisted parts renders CoreCover's
   output byte for byte as a catalog built from scratch on its view
   list: the same rewritings, atoms in the same order, and the same
   representative view tuples and cores. *)
let catalog_generations_render_as_scratch () =
  let inst query_subgoals =
    Generator.generate
      {
        Generator.default with
        shape = Generator.Star;
        query_subgoals;
        num_views = 40;
        nondistinguished_per_view = 1;
      }
  in
  let views = (inst 8).Generator.views in
  let queries = List.map (fun n -> (inst n).Generator.query) [ 3; 4; 5; 6; 7; 8 ] in
  let rendered cat =
    List.concat_map
      (fun query ->
        let r =
          Corecover.gmrs ~view_classes:(Catalog.view_classes cat) ~query
            ~views:(Catalog.views cat) ()
        in
        List.map Query.to_string r.Corecover.rewritings
        @ List.map
            (fun (tv, core) ->
              Format.asprintf "%a covers %a" View_tuple.pp tv Tuple_core.pp core)
            r.Corecover.cores)
      queries
  in
  let check step cat =
    Alcotest.(check (list string))
      step
      (rendered (Catalog.create_exn (Catalog.views cat)))
      (rendered cat)
  in
  let ok = function Ok c -> c | Error e -> Alcotest.fail e in
  let first = List.filteri (fun i _ -> i < 20) views
  and rest = List.filteri (fun i _ -> i >= 20) views in
  let grown = ok (Catalog.add_views (Catalog.create_exn first) rest) in
  check "add" grown;
  (* the representative of every class with another member goes, and
     every third single-member class *)
  let removed =
    List.concat
      (List.mapi
         (fun i cls ->
           match cls with
           | rep :: _ :: _ -> [ View.name rep ]
           | [ v ] when i mod 3 = 1 -> [ View.name v ]
           | _ -> [])
         (classes grown))
  in
  check_bool "a representative with a successor is removed" true
    (List.exists (fun cls -> List.length cls > 1) (classes grown));
  let shrunk = ok (Catalog.remove_views grown removed) in
  check "remove" shrunk;
  let restored =
    ok
      (Catalog.restore ~generation:(Catalog.generation shrunk) ~views:(Catalog.views shrunk)
         ~keyed:(Catalog.keyed shrunk))
  in
  check "restore" restored;
  check "add back"
    (ok
       (Catalog.add_views restored
          (List.filter (fun v -> List.mem (View.name v) removed) views)))

(* A generation knows its parent and the representatives its mutation
   touched; car-loc-part's classes are [v1; v5], [v2], [v3], [v4]. *)
let catalog_touched () =
  let ok = function Ok c -> c | Error e -> Alcotest.fail e in
  let names = Option.map (List.map View.name) in
  let touched = Alcotest.(check (option (list string))) in
  let cat = Catalog.create_exn Car_loc_part.views in
  touched "created: no parent" None (names (Catalog.touched cat ~parent:cat));
  let copy = q "v4c(M, D, C, S) :- car(M, D), loc(D, C), part(S, M, C)." in
  let with_copy = ok (Catalog.add_views cat [ copy ]) in
  touched "a copy opens no class" (Some []) (names (Catalog.touched with_copy ~parent:cat));
  touched "only its own parent" None
    (names (Catalog.touched with_copy ~parent:(Catalog.create_exn Car_loc_part.views)));
  let opened = ok (Catalog.add_views cat [ q "w(A) :- r(A, A)."; q "w2(A) :- r(A, A)." ]) in
  touched "a new class: its first view" (Some [ "w" ])
    (names (Catalog.touched opened ~parent:cat));
  touched "a member that is not first" (Some [])
    (names (Catalog.touched (ok (Catalog.remove_views cat [ "v5" ])) ~parent:cat));
  touched "a moved class and an emptied one" (Some [ "v1"; "v3" ])
    (names (Catalog.touched (ok (Catalog.remove_views cat [ "v3"; "v1" ])) ~parent:cat));
  let restored =
    ok
      (Catalog.restore ~generation:(Catalog.generation with_copy)
         ~views:(Catalog.views with_copy) ~keyed:(Catalog.keyed with_copy))
  in
  touched "restored: no parent" None (names (Catalog.touched restored ~parent:with_copy))

(* ------------------------------------------------------------------ *)
(* Service: cache correctness                                          *)

let service () = Service.create (Catalog.create_exn Car_loc_part.views)

let service_hit_identical () =
  let s = service () in
  let o1 = Service.rewrite s Car_loc_part.query in
  check_bool "first is a miss" true (o1.Service.source = Service.Miss);
  let o2 = Service.rewrite s Car_loc_part.query in
  check_bool "second is a hit" true (o2.Service.source = Service.Hit);
  (* observationally identical: same rewritings, same completeness *)
  check_bool "same rewritings" true
    (List.for_all2 Query.equal o1.Service.rewritings o2.Service.rewritings);
  check_query "same minimized query" o1.Service.minimized_query o2.Service.minimized_query

let service_hit_renames_back () =
  let s = service () in
  let (_ : Service.outcome) = Service.rewrite s Car_loc_part.query in
  (* permuted alpha-variant: the hit must come back in ITS variables *)
  let variant = q "q1(P, K) :- part(P, N, K), loc(anderson, K), car(N, anderson)." in
  let o = Service.rewrite s variant in
  check_bool "alpha-variant is a hit" true (o.Service.source = Service.Hit);
  let fresh = Service.rewrite (service ()) variant in
  check_bool "hit = fresh service run, exactly" true
    (List.for_all2 Query.equal o.Service.rewritings fresh.Service.rewritings);
  (* every rewriting is a genuine equivalent rewriting of the variant *)
  List.iter
    (fun p ->
      check_bool "sound" true
        (Expansion.is_equivalent_rewriting ~views:Car_loc_part.views ~query:variant p))
    o.Service.rewritings

let service_truncated_not_cached () =
  let s = service () in
  let o1 = Service.rewrite ~budget:(Budget.create ~max_steps:1 ()) s Car_loc_part.query in
  (match o1.Service.completeness with
  | Corecover.Truncated _ -> ()
  | Corecover.Complete -> Alcotest.fail "expected a truncated result");
  check_bool "truncated bypasses the cache" true (o1.Service.source = Service.Bypass);
  (* the truncated run must not have been stored: the next request is a
     miss and computes the real (complete) result *)
  let o2 = Service.rewrite s Car_loc_part.query in
  check_bool "next request is a miss" true (o2.Service.source = Service.Miss);
  check_bool "and complete" true (o2.Service.completeness = Corecover.Complete);
  check_bool "with rewritings" true (o2.Service.rewritings <> []);
  let o3 = Service.rewrite s Car_loc_part.query in
  check_bool "now cached" true (o3.Service.source = Service.Hit)

let service_generation_invalidates () =
  let s = service () in
  let o1 = Service.rewrite s Car_loc_part.query in
  let cat' =
    match Catalog.remove_views (Service.catalog s) [ "v4" ] with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  Service.set_catalog s cat';
  let o2 = Service.rewrite s Car_loc_part.query in
  check_bool "cache cleared on catalog swap" true (o2.Service.source = Service.Miss);
  (* v4 gone: the single-view rewriting disappears *)
  check_bool "answers reflect the new generation" true
    (List.length o2.Service.rewritings < List.length o1.Service.rewritings
    || not (List.for_all2 Query.equal o1.Service.rewritings o2.Service.rewritings))

(* A copy of v4 joins v4's class behind it: the cached rewriting
   survives the add and the remove, and neither is a generation reset.
   Removing v4 itself drops it. *)
let service_mutation_keeps_entries () =
  let s = service () in
  let ok = function Ok c -> c | Error e -> Alcotest.fail e in
  let source () = (Service.rewrite s Car_loc_part.query).Service.source in
  check_bool "miss" true (source () = Service.Miss);
  let copy = q "v4c(M, D, C, S) :- car(M, D), loc(D, C), part(S, M, C)." in
  Service.set_catalog s (ok (Catalog.add_views (Service.catalog s) [ copy ]));
  check_bool "hit after adding a copy" true (source () = Service.Hit);
  Service.set_catalog s (ok (Catalog.remove_views (Service.catalog s) [ "v4c" ]));
  check_bool "hit after removing it" true (source () = Service.Hit);
  Service.set_catalog s (ok (Catalog.add_views (Service.catalog s) [ q "w(A) :- r(A, A)." ]));
  check_bool "hit after adding a view over another relation" true (source () = Service.Hit);
  Service.set_catalog s (ok (Catalog.remove_views (Service.catalog s) [ "v4" ]));
  check_bool "miss after removing the representative" true (source () = Service.Miss);
  check_int "no generation reset" 0 (Service.stats s).Service.generation_resets;
  (* a child of a catalog that is not the live one clears everything *)
  let stale = ok (Catalog.add_views (Catalog.create_exn Car_loc_part.views) [ copy ]) in
  Service.set_catalog s stale;
  check_bool "miss after a foreign child" true (source () = Service.Miss);
  check_int "which is a reset" 1 (Service.stats s).Service.generation_resets

(* Random add/remove sequences through the wire protocol: renamed copies
   (members behind a representative), views added back (new classes),
   and removals of any member, representatives included, so classes
   empty and move.  Star views over an 8-subgoal query meet queries of 3
   to 8 subgoals, so many views have a predicate some query lacks.
   After every step each query's reply equals, with trace ids and
   hit/miss masked, a fresh server's on [Catalog.create] of the same
   view list; and some replies after mutations are hits.  Keeping the
   entries when a representative goes fails it. *)
let mask_reply text =
  match String.split_on_char '\n' text with
  | [] -> text
  | first :: rest ->
      let words =
        List.map
          (fun w ->
            if w = "hit" || w = "miss" then "_"
            else if String.length w > 6 && String.sub w 0 6 = "trace=" then "trace=_"
            else w)
          (String.split_on_char ' ' first)
      in
      String.concat "\n" (String.concat " " words :: rest)

let churn_qcheck =
  let inst query_subgoals =
    Generator.generate
      {
        Generator.default with
        shape = Generator.Star;
        query_subgoals;
        num_views = 14;
        nondistinguished_per_view = 0;
      }
  in
  (* 13 classes; over all 14 views the queries have 1, 2, 2 and 13
     rewritings *)
  let pool = (inst 8).Generator.views in
  let queries =
    List.map (fun n -> "rewrite " ^ Query.to_string (inst n).Generator.query ^ ".") [ 3; 5; 6; 8 ]
  in
  let rule v = Format.asprintf "%a." Query.pp v in
  let op = Gen.(pair (int_bound 2) nat) in
  let gen = Gen.(list_size (int_range 1 6) op) in
  let print ops =
    String.concat "; " (List.map (fun (k, i) -> Printf.sprintf "(%d,%d)" k i) ops)
  in
  make_qcheck ~count:60 ~name:"catalog churn: replies = a fresh server's" gen print
    (fun ops ->
      let live = Protocol.create_shared () in
      Protocol.install_catalog live (Catalog.create_exn (List.filteri (fun i _ -> i < 9) pool));
      let sess = Protocol.new_session live in
      let service () = Option.get (Protocol.service live) in
      let reply shared sess line = (Protocol.handle_lines shared sess [ line ]).Protocol.text in
      let survived = ref 0 and copies = ref 0 in
      let check_replies after =
        let fresh = Protocol.create_shared () in
        Protocol.install_catalog fresh
          (Catalog.create_exn (Catalog.views (Service.catalog (service ()))));
        let fsess = Protocol.new_session fresh in
        List.iter
          (fun line ->
            let got = reply live sess line in
            if after <> "" && List.mem "hit" (String.split_on_char ' ' got) then incr survived;
            let want = reply fresh fsess line in
            if mask_reply got <> mask_reply want then
              QCheck2.Test.fail_reportf "after %S: %s@.got:@.%s@.want:@.%s" after line got want)
          queries
      in
      check_replies "";
      (* the first step is a copy, after which every entry survives *)
      List.iteri
        (fun step (kind, i) ->
          let members = Catalog.views (Service.catalog (service ())) in
          let pick l = List.nth l (i mod List.length l) in
          let absent =
            List.filter (fun v -> not (List.exists (fun m -> View.name m = View.name v) members)) pool
          in
          let line =
            match kind with
            | 1 when step > 0 && absent <> [] -> "catalog add " ^ rule (pick absent)
            | 2 when step > 0 && List.length members > 1 ->
                "catalog remove " ^ View.name (pick members)
            | _ ->
                incr copies;
                let v = pick members in
                "catalog add "
                ^ rule
                    (Query.make_exn
                       (Atom.make ("c" ^ string_of_int !copies) v.Query.head.Atom.args)
                       v.Query.body)
          in
          let r = reply live sess line in
          if not (String.length r > 10 && String.sub r 0 10 = "ok catalog") then
            QCheck2.Test.fail_reportf "%s: %s" line r;
          check_replies line)
        ops;
      !survived > 0 && (Service.stats (service ())).Service.generation_resets = 0)

let service_stats_consistent () =
  let s = service () in
  let queries =
    [ Car_loc_part.query; Car_loc_part.query; Example_4_1.query ]
  in
  List.iter (fun query -> ignore (Service.rewrite s query)) queries;
  let st = Service.stats s in
  check_int "requests" 3 st.Service.requests;
  check_int "identity: hits+misses+bypasses" st.Service.requests
    (st.Service.hits + st.Service.misses + st.Service.bypasses);
  check_int "one hit" 1 st.Service.hits;
  check_int "latency count" 3 st.Service.latency.Service.count

(* Planning needs a base database: before [data load] both plan and
   analyze raise the typed input error, not a [Failure], and it is not a
   budget error a retry could fix. *)
let service_plan_needs_data () =
  let s = service () in
  let no_data what f =
    match f () with
    | () -> Alcotest.failf "%s: expected No_data" what
    | exception Vplan_error.Error Vplan_error.No_data -> ()
  in
  no_data "plan" (fun () -> ignore (Service.plan s Car_loc_part.query));
  no_data "analyze" (fun () -> ignore (Service.analyze s Car_loc_part.query));
  check_bool "not a resource error" false (Vplan_error.is_resource Vplan_error.No_data);
  Service.set_base s Car_loc_part.base;
  check_bool "plans once data is loaded" true (Service.plan s Car_loc_part.query <> None)

(* Lifetime counters survive a catalog swap; only the generation-resets
   counter records it (regression: they used to be conflated with the
   per-catalog state). *)
let service_stats_survive_catalog_swap () =
  let s = service () in
  ignore (Service.rewrite s Car_loc_part.query);
  ignore (Service.rewrite s Car_loc_part.query);
  let before = Service.stats s in
  check_int "no resets yet" 0 before.Service.generation_resets;
  Service.set_catalog s (Catalog.create_exn Car_loc_part.views);
  let after = Service.stats s in
  check_int "requests survive" before.Service.requests after.Service.requests;
  check_int "hits survive" before.Service.hits after.Service.hits;
  check_int "misses survive" before.Service.misses after.Service.misses;
  check_int "latency count survives" before.Service.latency.Service.count
    after.Service.latency.Service.count;
  check_int "one reset recorded" 1 after.Service.generation_resets;
  Service.set_catalog s (Catalog.create_exn Car_loc_part.views);
  check_int "resets accumulate" 2 (Service.stats s).Service.generation_resets

(* A cache hit (alpha-renamed, permuted resubmission) returns a rewriting
   set equal, up to renaming, to a fresh Corecover run on the resubmitted
   query.  "Up to renaming" is per-rewriting isomorphism; the sets are
   compared as multisets. *)
let same_up_to_iso ps qs =
  let rec consume remaining = function
    | [] -> remaining = []
    | p :: rest -> (
        match List.partition (fun p' -> Containment.isomorphic p p') remaining with
        | _ :: dups, others -> consume (dups @ others) rest
        | [], _ -> false)
  in
  List.length ps = List.length qs && consume qs ps

let service_hit_vs_fresh_qcheck =
  let gen = Gen.pair Qcheck_gens.gen_query (Qcheck_gens.gen_views ~max_views:3 ~max_atoms:2) in
  make_qcheck ~count:100 ~name:"cache hit = fresh Corecover up to renaming" gen
    Qcheck_gens.print_instance (fun (query, views) ->
      let s = Service.create (Catalog.create_exn views) in
      let o1 = Service.rewrite s query in
      let vars = Query.vars query in
      let sigma =
        Subst.of_list (List.mapi (fun i x -> (x, Term.Var ("Y" ^ string_of_int i))) vars)
      in
      let renamed = Query.apply sigma query in
      let variant = Query.make_exn renamed.Query.head (List.rev renamed.Query.body) in
      let o2 = Service.rewrite s variant in
      let fresh = Corecover.gmrs ~query:variant ~views () in
      o1.Service.source = Service.Miss
      && o2.Service.source = Service.Hit
      && same_up_to_iso o2.Service.rewritings fresh.Corecover.rewritings)

(* The wire path splices a template with the caller's names; the
   library path renames [Query.t] values and prints them through
   [Format].  They must agree byte for byte on a miss, on a hit, on a hit
   from a permuted variant with other names, on an uncacheable bypass and
   on a truncated run. *)
let reply_template_qcheck =
  make_qcheck ~count:200 ~name:"reply template = Query.pp of the renamed rewritings"
    Qcheck_gens.gen_wire_instance Qcheck_gens.print_instance (fun (query, views) ->
      let cat = Catalog.create_exn views in
      let same (r : Service.reply) (o : Service.outcome) =
        r.Service.reply_count = List.length o.Service.rewritings
        && r.Service.reply_completeness = o.Service.completeness
        && String.equal (reply_lines r) (format_lines o.Service.rewritings)
      in
      let s = Service.create cat in
      let miss = Service.rewrite_reply s query in
      let hit = Service.rewrite s query in
      (* "V1" -> "V10", "V10" -> "V100": injective, and label-like *)
      let variant =
        let renamed =
          Query.apply
            (Subst.of_list (List.map (fun x -> (x, Term.Var (x ^ "0"))) (Query.vars query)))
            query
        in
        Query.make_exn renamed.Query.head (List.rev renamed.Query.body)
      in
      let variant_hit = Service.rewrite_reply s variant in
      let variant_fresh = Service.rewrite (Service.create cat) variant in
      let s' = Service.create cat in
      let truncated = Service.rewrite_reply ~max_covers:1 s' query in
      let truncated_ref = Service.rewrite ~max_covers:1 s' query in
      same miss hit
      && hit.Service.source
         = (if miss.Service.reply_source = Service.Miss then Service.Hit else Service.Bypass)
      && same variant_hit variant_fresh
      && same truncated truncated_ref)

(* Lines share fragments: each atom is rendered once and spliced into
   every line whose cover uses it.  Shared atoms carry [Int] and [Str]
   constants (one spelled like a slot variable) and variables outside
   [vars], which stay literal; an atom no cover uses is never rendered. *)
let reply_template_shared_atoms () =
  let v x = Term.Var x in
  let head = Atom.make "q" [ v "X"; v "Y"; Term.Cst (Term.Int 7) ] in
  let atoms =
    [|
      Atom.make "v1" [ v "X"; Term.Cst (Term.Int 42); v "Z" ];
      Atom.make "v2" [ Term.Cst (Term.Str "anderson"); v "Y"; v "X" ];
      Atom.make "v3" [ v "Y"; Term.Cst (Term.Str "X"); v "W" ];
      Atom.make "unused" [ v "X" ];
    |]
  in
  let covers = [ [ 0; 1 ]; [ 1; 2; 0 ]; [ 1 ]; [ 2; 0 ] ] in
  let t = Reply_template.make ~vars:[| "X"; "Y" |] ~head ~atoms covers in
  let render names =
    let buf = Buffer.create 64 in
    Reply_template.render buf t names;
    Buffer.contents buf
  in
  let expected names =
    let s =
      Subst.of_list (List.map2 (fun x n -> (x, Term.Var n)) [ "X"; "Y" ] names)
    in
    format_lines
      (List.map
         (fun c -> Query.apply s (Query.make_exn head (List.map (Array.get atoms) c)))
         covers)
  in
  Alcotest.(check string)
    "renamed"
    "q(A,B10,7) :- v1(A,42,Z), v2(anderson,B10,A)\n\
     q(A,B10,7) :- v2(anderson,B10,A), v3(B10,X,W), v1(A,42,Z)\n\
     q(A,B10,7) :- v2(anderson,B10,A)\n\
     q(A,B10,7) :- v3(B10,X,W), v1(A,42,Z)\n"
    (render [| "A"; "B10" |]);
  Alcotest.(check string) "= Query.pp" (expected [ "A"; "B10" ]) (render [| "A"; "B10" |]);
  Alcotest.(check string) "identity names" (expected [ "X"; "Y" ]) (render [| "X"; "Y" |]);
  Alcotest.(check string)
    "no covers" ""
    (let buf = Buffer.create 8 in
     Reply_template.render buf (Reply_template.make ~vars:[||] ~head ~atoms []) [||];
     Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* The resident view image                                             *)

let answers_of = function
  | Some (o : Service.analyze_outcome) -> o.Service.an_answers
  | None -> Alcotest.fail "expected an analyze outcome"

let facts l = Database.of_facts (List.map (fun (p, args) -> (p, List.map (fun s -> Term.Str s) args)) l)

(* The planning context's view image is built once and reused, so it
   must go stale with neither the data nor the catalog: after
   [set_base], analyze answers over the new rows. *)
let image_follows_set_base () =
  let s = service () in
  Service.set_base s Car_loc_part.base;
  let truth db = Relation.cardinality (Oracle.Eval.answers db Car_loc_part.query) in
  check_int "answers over the first base" (truth Car_loc_part.base)
    (answers_of (Service.analyze s Car_loc_part.query));
  let more =
    facts
      [
        ("car", [ "honda"; "anderson" ]);
        ("loc", [ "anderson"; "springfield" ]);
        ("loc", [ "anderson"; "shelby" ]);
        ("loc", [ "anderson"; "ogden" ]);
        ("part", [ "s1"; "honda"; "springfield" ]);
        ("part", [ "s5"; "honda"; "shelby" ]);
        ("part", [ "s6"; "honda"; "ogden" ]);
        ("part", [ "s7"; "honda"; "ogden" ]);
      ]
  in
  check_bool "the bases differ in answer count" true (truth more <> truth Car_loc_part.base);
  Service.set_base s more;
  check_int "answers follow the new base" (truth more)
    (answers_of (Service.analyze s Car_loc_part.query))

(* ... and after [set_catalog]: the two catalogs swap the definitions of
   [v1] and [v2], so the rewriting must switch views, and a stale image
   would answer it from the wrong base relation. *)
let image_follows_set_catalog () =
  let query = q "q(X, Y) :- r(X, Y)." in
  let cat defs = Catalog.create_exn (qs defs) in
  let s = Service.create (cat [ "v1(A, B) :- r(A, B)."; "v2(A, B) :- s(A, B)." ]) in
  let base = facts [ ("r", [ "a"; "b" ]); ("s", [ "a"; "b" ]); ("s", [ "b"; "c" ]) ] in
  Service.set_base s base;
  let analyzed () =
    match Service.analyze s query with
    | Some o ->
        ( List.map (fun (a : Atom.t) -> a.Atom.pred) o.Service.an_rewriting.Query.body,
          o.Service.an_answers )
    | None -> Alcotest.fail "expected an analyze outcome"
  in
  let views = Alcotest.(check (list string)) in
  let body, answers = analyzed () in
  views "rewritten over v1" [ "v1" ] body;
  check_int "answers under the first catalog" 1 answers;
  Service.set_catalog s (cat [ "v1(A, B) :- s(A, B)."; "v2(A, B) :- r(A, B)." ]);
  let body, answers = analyzed () in
  views "rewritten over v2" [ "v2" ] body;
  check_int "answers follow the new catalog" 1 answers

(* Two domains racing on a fresh context: both plan and execute over one
   published image, and analyze returns the same answers on both. *)
let image_published_once () =
  let race f =
    let ready = Atomic.make 0 in
    let go () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do
        Domain.cpu_relax ()
      done;
      f ()
    in
    let d = Domain.spawn go in
    let mine = go () in
    (mine, Domain.join d)
  in
  let ctx = Optimizer.create ~views:Car_loc_part.views Car_loc_part.base in
  let img1, img2 =
    race (fun () ->
        ignore (Optimizer.plan (Optimizer.M2 Optimizer.Exact) ctx Car_loc_part.query);
        Optimizer.image ctx)
  in
  check_bool "one published image" true (img1 == img2);
  let s = service () in
  Service.set_base s Car_loc_part.base;
  let a1, a2 = race (fun () -> answers_of (Service.analyze s Car_loc_part.query)) in
  check_int "identical answers" a1 a2;
  check_int "the query's answers" (Relation.cardinality (Oracle.Eval.answers Car_loc_part.base Car_loc_part.query)) a1

(* ------------------------------------------------------------------ *)
(* The plan cache                                                      *)

let mode_name = function Service.Exact -> "exact" | Service.Estimated -> "estimated"

let cost_text = function
  | Service.Cells c -> Printf.sprintf "cost=%d" c
  | Service.Cells_est c -> Printf.sprintf "cost_est=%.1f" c

(* One query holding the request, the chosen rewriting and its join
   order, each atom tagged with its role and position.  Two such keys
   are equal iff one renaming maps request, rewriting and order onto the
   other's (Normalize's key is complete for isomorphism): the plans are
   the same up to the renaming between the requests, or up to an
   automorphism of the request. *)
let plan_key (query : Query.t) (rw : Query.t) order =
  let tag role i (a : Atom.t) = Atom.make (Printf.sprintf "%s%d_%s" role i a.Atom.pred) a.Atom.args in
  Normalize.cache_key
    (Query.make_exn query.Query.head
       ((tag "h" 0 rw.Query.head :: query.Query.body)
       @ List.mapi (tag "r") rw.Query.body
       @ List.mapi (tag "o") order))

(* A plan or analyze reply, reduced to what must agree between a request
   and a renamed variant of it: every number verbatim, the plan through
   [plan_key].  The rewriting must also be in the request's own
   variables: its head is the request's. *)
let plan_reply query = function
  | None -> "none"
  | Some (o : Service.plan_outcome) ->
      Printf.sprintf "%s candidates=%d class=%s own-head=%b %s" (cost_text o.Service.plan_cost)
        o.Service.plan_candidates o.Service.plan_classification
        (Atom.equal o.Service.plan_rewriting.Query.head query.Query.head)
        (Option.value ~default:"uncacheable"
           (plan_key query o.Service.plan_rewriting o.Service.plan_order))

let analyze_reply query = function
  | None -> "none"
  | Some (o : Service.analyze_outcome) ->
      Printf.sprintf "%s candidates=%d answers=%d qerror=%.2f class=%s profile=[%s] own-head=%b %s"
        (cost_text o.Service.an_cost) o.Service.an_candidates o.Service.an_answers
        o.Service.an_qerror o.Service.an_classification
        (String.concat ";"
           (List.map
              (fun (sp : Trace.span) ->
                String.concat ","
                  (List.map (fun (k, v) -> Printf.sprintf "%s=%g" k v) sp.Trace.kv))
              o.Service.an_profile))
        (Atom.equal o.Service.an_rewriting.Query.head query.Query.head)
        (Option.value ~default:"uncacheable"
           (plan_key query o.Service.an_rewriting o.Service.an_order))

let replies ~cost_mode s query =
  ( plan_reply query (Service.plan ~cost_mode s query),
    analyze_reply query (Service.analyze ~cost_mode s query) )

(* [query] renamed to label-like names (the canonical labels among
   them) and its body permuted. *)
let gen_variant (query : Query.t) =
  let open Gen in
  let* renamed = Qcheck_gens.gen_named (Qcheck_gens.label_like 6) query in
  let+ body = shuffle_l renamed.Query.body in
  Query.make_exn renamed.Query.head body

let fresh_service ~views base =
  let s = Service.create (Catalog.create_exn views) in
  Service.set_base s base;
  s

type mutation = Rebase | Add | Remove

(* Both cost modes, over random instances and bases: a renamed,
   permuted variant's plan and analyze replies equal a fresh service's
   on the original, on a cold and on a warm cache, and again after the
   live service loads another base or adds or removes a view.  A plan
   cache that outlived its context, or a plan left in canonical
   variables, fails it. *)
let plan_cache_qcheck =
  let gen =
    let open Gen in
    let* query, views =
      frequency
        [
          (1, pair Qcheck_gens.gen_query (Qcheck_gens.gen_views ~max_views:3 ~max_atoms:2));
          (2, Qcheck_gens.gen_covered_instance);
        ]
    in
    let* variant = gen_variant query in
    let* base = Qcheck_gens.gen_database in
    let* base' = Qcheck_gens.gen_database in
    let* mode = oneofl [ Service.Exact; Service.Estimated ] in
    let+ mutation = oneofl [ Rebase; Add; Remove ] in
    (query, variant, views, base, base', mode, mutation)
  in
  let print (query, variant, views, _, _, mode, mutation) =
    Printf.sprintf "%s || variant %s || %s || %s %s" (Query.to_string query)
      (Query.to_string variant) (Qcheck_gens.print_views views) (mode_name mode)
      (match mutation with Rebase -> "rebase" | Add -> "add" | Remove -> "remove")
  in
  make_qcheck ~count:150 ~name:"plan cache: variant replies = a fresh service's" gen print
    (fun (query, variant, views, base, base', cost_mode, mutation) ->
      let expect what ~views base got =
        (* the reference plans and analyzes on two fresh services, so
           neither reply comes from a plan cache *)
        let want =
          ( plan_reply query (Service.plan ~cost_mode (fresh_service ~views base) query),
            analyze_reply query (Service.analyze ~cost_mode (fresh_service ~views base) query) )
        in
        if got <> want then
          QCheck2.Test.fail_reportf "%s:@.got:  %s@.      %s@.want: %s@.      %s" what (fst got)
            (snd got) (fst want) (snd want)
      in
      let ok = function Ok c -> c | Error e -> QCheck2.Test.fail_report e in
      let initial = match views with _ :: (_ :: _ as rest) -> rest | _ -> views in
      let live = fresh_service ~views:initial base in
      expect "cold variant" ~views:initial base (replies ~cost_mode live variant);
      expect "warm variant" ~views:initial base (replies ~cost_mode live variant);
      expect "warm original" ~views:initial base (replies ~cost_mode live query);
      let rebase () =
        Service.set_base live base';
        (initial, base')
      in
      let views', base' =
        match (mutation, views, initial) with
        | Add, v :: _, _ :: _ when initial != views ->
            let cat = ok (Catalog.add_views (Service.catalog live) [ v ]) in
            Service.set_catalog live cat;
            (Catalog.views cat, base)
        | Remove, _, v :: _ :: _ ->
            let cat = ok (Catalog.remove_views (Service.catalog live) [ View.name v ]) in
            Service.set_catalog live cat;
            (Catalog.views cat, base)
        | _ -> rebase ()
      in
      expect "after the change, variant" ~views:views' base' (replies ~cost_mode live variant);
      expect "after the change, original" ~views:views' base' (replies ~cost_mode live query);
      true)

let plan_source s ?max_covers ?budget query =
  match Service.plan ?max_covers ?budget s query with
  | Some o -> o.Service.plan_source
  | None -> Alcotest.fail "expected a plan"

let source_testable =
  Alcotest.testable
    (fun ppf src ->
      Format.pp_print_string ppf
        (match src with Service.Hit -> "hit" | Service.Miss -> "miss" | Service.Bypass -> "bypass"))
    ( = )

let check_source = Alcotest.check source_testable

let plan_service () =
  let s = service () in
  Service.set_base s Car_loc_part.base;
  s

let candidates_of = function
  | Some (o : Service.plan_outcome) -> o.Service.plan_candidates
  | None -> Alcotest.fail "expected a plan"

(* A CoreCover* run cut short, by its step budget or its cover cap, is
   never published: the next full request is still a miss. *)
let plan_truncated_not_published () =
  let s = plan_service () in
  (match Service.plan ~budget:(Budget.create ~max_steps:1 ()) s Car_loc_part.query with
  | Some o -> check_source "step budget" Service.Bypass o.Service.plan_source
  | None -> ()
  | exception Vplan_error.Error e when Vplan_error.is_resource e -> ());
  check_source "cover cap" Service.Bypass (plan_source s ~max_covers:1 Car_loc_part.query);
  check_source "full run" Service.Miss (plan_source s Car_loc_part.query);
  check_source "then cached" Service.Hit (plan_source s Car_loc_part.query)

(* A cached plan answers only a cover cap its candidate count stays
   under; a smaller cap gets exactly what a fresh service gives it. *)
let plan_cover_cap_not_exceeded () =
  let s = plan_service () in
  let n = candidates_of (Service.plan s Car_loc_part.query) in
  check_bool "several candidates" true (n >= 2);
  let capped = Service.plan ~max_covers:(n - 1) s Car_loc_part.query in
  let fresh = Service.plan ~max_covers:(n - 1) (plan_service ()) Car_loc_part.query in
  check_int "capped candidates" (n - 1) (candidates_of capped);
  check_bool "capped = fresh" true
    (plan_reply Car_loc_part.query capped = plan_reply Car_loc_part.query fresh);
  check_bool "a cap at the count is not served" true
    (plan_source s ~max_covers:n Car_loc_part.query <> Service.Hit);
  check_source "a cap above the count is" Service.Hit
    (plan_source s ~max_covers:(n + 1) Car_loc_part.query)

(* Nine interchangeable existential variables blow the canonical-labeling
   search, so the query is planned as-is, every time. *)
let plan_uncacheable_bypasses () =
  let query =
    q "q(X1) :- s(X1), s(X2), s(X3), s(X4), s(X5), s(X6), s(X7), s(X8), s(X9), s(X10)."
  in
  check_bool "uncacheable" true (Normalize.canonicalize query = None);
  let s = Service.create (Catalog.create_exn (qs [ "v(A) :- s(A)." ])) in
  Service.set_base s (facts [ ("s", [ "a" ]); ("s", [ "b" ]) ]);
  let hits () = Metrics.value (Metrics.counter "vplan_plan_cache_hits_total") in
  let misses () = Metrics.value (Metrics.counter "vplan_plan_cache_misses_total") in
  let h0, m0 = (hits (), misses ()) in
  check_source "first" Service.Bypass (plan_source s query);
  check_source "second" Service.Bypass (plan_source s query);
  check_int "answers" 2 (answers_of (Service.analyze s query));
  check_int "no plan cache hit" h0 (hits ());
  check_int "no plan cache probe" m0 (misses ())

(* [stats] hits and misses stay the rewrite cache's: plans and analyzes,
   hits among them, leave them alone; the plan cache counts in the
   metrics registry. *)
let plan_cache_outside_stats () =
  let s = plan_service () in
  let hits () = Metrics.value (Metrics.counter "vplan_plan_cache_hits_total") in
  let h0 = hits () in
  let variant = q "q1(P, K) :- part(P, N, K), loc(anderson, K), car(N, anderson)." in
  ignore (Service.plan s Car_loc_part.query);
  ignore (Service.plan s variant);
  ignore (Service.analyze s variant);
  let st = Service.stats s in
  check_int "plan cache hits" 2 (hits () - h0);
  check_int "no rewrite hit" 0 st.Service.hits;
  check_int "no rewrite miss" 0 st.Service.misses;
  check_int "plan requests" 2 st.Service.plan_requests;
  check_int "analyze requests" 1 st.Service.analyze_requests;
  ignore (Service.rewrite s Car_loc_part.query);
  ignore (Service.rewrite s variant);
  let st = Service.stats s in
  check_int "rewrite hit" 1 st.Service.hits;
  check_int "rewrite miss" 1 st.Service.misses

(* ------------------------------------------------------------------ *)
(* Concurrent dispatch                                                 *)

let stress_concurrent_vs_sequential () =
  (* a workload with repeats and alpha-variants against one shared
     catalog: the pool must produce exactly the sequential answers *)
  let variants =
    [
      Car_loc_part.query;
      q "q1(P, K) :- part(P, N, K), loc(anderson, K), car(N, anderson).";
      Example_4_1.query;
      q "q(U, V) :- b(W, V), a(U, W), a(W, W).";
    ]
  in
  let workload = List.concat (List.init 4 (fun _ -> variants)) in
  let sequential =
    let s = service () in
    List.map (fun query -> Service.rewrite s query) workload
  in
  let concurrent =
    let s = service () in
    Service.rewrite_batch ~domains:4 s workload
  in
  List.iter2
    (fun (a : Service.outcome) (b : Service.reply) ->
      Alcotest.(check string)
        "same rewritings under concurrency" (format_lines a.Service.rewritings)
        (reply_lines b);
      check_bool "same completeness" true
        (a.Service.completeness = b.Service.reply_completeness))
    sequential concurrent;
  let s = service () in
  let (_ : Service.reply list) = Service.rewrite_batch ~domains:4 s workload in
  let st = Service.stats s in
  check_int "every request accounted" (List.length workload) st.Service.requests;
  check_int "identity holds under concurrency" st.Service.requests
    (st.Service.hits + st.Service.misses + st.Service.bypasses)

let suite =
  [
    Alcotest.test_case "canonical key: permuted Example 4.1" `Quick
      canonical_key_permuted_example41;
    Alcotest.test_case "canonical key separates queries" `Quick canonical_key_separates;
    Alcotest.test_case "canonicalize: sigma witnesses isomorphism" `Quick
      canonicalize_sigma_witnesses;
    canonical_key_qcheck;
    Alcotest.test_case "lru: eviction order and counters" `Quick lru_eviction;
    Alcotest.test_case "lru: replace is not eviction" `Quick lru_replace_is_not_eviction;
    Alcotest.test_case "lru: retain keeps order and capacity" `Quick lru_retain;
    Alcotest.test_case "catalog: incremental add = from scratch" `Quick
      catalog_incremental_add;
    Alcotest.test_case "catalog: remove and errors" `Quick catalog_remove;
    Alcotest.test_case "catalog: an add checks its own names" `Quick catalog_add_duplicates;
    Alcotest.test_case "catalog: generations render as from scratch" `Quick
      catalog_generations_render_as_scratch;
    Alcotest.test_case "catalog: touched representatives" `Quick catalog_touched;
    Alcotest.test_case "catalog classes drive corecover" `Quick
      catalog_classes_drive_corecover;
    Alcotest.test_case "service: hit is observationally identical" `Quick
      service_hit_identical;
    Alcotest.test_case "service: hit renames into caller variables" `Quick
      service_hit_renames_back;
    Alcotest.test_case "service: truncated results are never cached" `Quick
      service_truncated_not_cached;
    Alcotest.test_case "service: catalog swap invalidates cache" `Quick
      service_generation_invalidates;
    Alcotest.test_case "service: a mutation keeps what it cannot change" `Quick
      service_mutation_keeps_entries;
    churn_qcheck;
    Alcotest.test_case "service: stats identity" `Quick service_stats_consistent;
    Alcotest.test_case "service: stats survive catalog swap" `Quick
      service_stats_survive_catalog_swap;
    Alcotest.test_case "service: plan and analyze need data" `Quick
      service_plan_needs_data;
    service_hit_vs_fresh_qcheck;
    plan_cache_qcheck;
    Alcotest.test_case "plan cache: truncated runs are never published" `Quick
      plan_truncated_not_published;
    Alcotest.test_case "plan cache: a smaller cover cap runs" `Quick
      plan_cover_cap_not_exceeded;
    Alcotest.test_case "plan cache: an uncacheable query bypasses it" `Quick
      plan_uncacheable_bypasses;
    Alcotest.test_case "plan cache: stats count only rewrites" `Quick
      plan_cache_outside_stats;
    reply_template_qcheck;
    Alcotest.test_case "reply template: covers share atoms" `Quick
      reply_template_shared_atoms;
    Alcotest.test_case "image: follows set_base" `Quick image_follows_set_base;
    Alcotest.test_case "image: follows set_catalog" `Quick image_follows_set_catalog;
    Alcotest.test_case "image: published once under a race" `Quick image_published_once;
    Alcotest.test_case "service: concurrent = sequential" `Quick
      stress_concurrent_vs_sequential;
  ]
