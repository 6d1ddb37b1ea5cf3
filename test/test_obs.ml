(* Tests for the observability layer (lib/obs): histogram bucketing and
   quantile readout, counter merges across Parallel.map domains, span
   collection and parent links, and the observer-effect property — a
   traced pipeline returns exactly what an untraced one does. *)

open Vplan
open Qcheck_gens
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

(* Metrics are process-global, so every test registers under its own
   test_obs_* name and never touches the vplan_* metrics the library
   itself maintains. *)

(* --- histogram bucketing ------------------------------------------- *)

let bucket_boundaries () =
  let bounds = Metrics.bucket_bounds in
  let n = Array.length bounds in
  for i = 0 to n - 2 do
    check_bool "bounds ascending" true (bounds.(i) < bounds.(i + 1))
  done;
  (* a sample exactly on a bound lands in that bucket (le semantics)… *)
  Array.iteri
    (fun i b -> check_int "on-bound sample" i (Metrics.bucket_index b))
    bounds;
  (* …and one just above it in the next *)
  for i = 0 to n - 2 do
    let just_above = bounds.(i) +. ((bounds.(i + 1) -. bounds.(i)) /. 2.) in
    check_int "above-bound sample" (i + 1) (Metrics.bucket_index just_above)
  done;
  check_int "zero sample" 0 (Metrics.bucket_index 0.);
  check_int "overflow sample" n (Metrics.bucket_index (bounds.(n - 1) +. 1.))

let clamped_samples () =
  let h = Metrics.histogram "test_obs_clamp_ms" in
  Metrics.observe h Float.nan;
  Metrics.observe h (-5.);
  let s = Metrics.summary h in
  check_int "clamped count" 2 s.Metrics.count;
  check_bool "clamped sum" true (s.Metrics.sum_ms = 0.);
  check_bool "clamped p50 = first bucket" true
    (s.Metrics.p50_ms = Metrics.bucket_bounds.(0))

let quantile_readout () =
  let bounds = Metrics.bucket_bounds in
  let h = Metrics.histogram "test_obs_quantiles_ms" in
  (* 50 fast, 40 medium, 9 slow, 1 in the overflow bucket: the rank for
     p50 (50) is reached by the fast bucket, p90 (90) by the medium one,
     p99 (99) by the slow one. *)
  for _ = 1 to 50 do Metrics.observe h 0.5 done;
  for _ = 1 to 40 do Metrics.observe h 5. done;
  for _ = 1 to 9 do Metrics.observe h 50. done;
  Metrics.observe h (bounds.(Array.length bounds - 1) +. 1.);
  let s = Metrics.summary h in
  check_int "count" 100 s.Metrics.count;
  check_bool "p50" true (s.Metrics.p50_ms = bounds.(Metrics.bucket_index 0.5));
  check_bool "p90" true (s.Metrics.p90_ms = bounds.(Metrics.bucket_index 5.));
  check_bool "p99" true (s.Metrics.p99_ms = bounds.(Metrics.bucket_index 50.))

let overflow_quantile () =
  let h = Metrics.histogram "test_obs_overflow_ms" in
  Metrics.observe h 1e9;
  let s = Metrics.summary h in
  check_bool "overflow p50 is infinite" true (s.Metrics.p50_ms = infinity)

(* --- counters across domains --------------------------------------- *)

let counter_cross_domain () =
  let c = Metrics.counter "test_obs_merge_total" in
  let items = List.init 64 (fun i -> i) in
  let _ =
    Parallel.map ~domains:4
      (fun n ->
        for _ = 1 to n do Metrics.incr c done;
        n)
      items
  in
  let expected = List.fold_left ( + ) 0 items in
  check_int "cross-domain counter sum" expected (Metrics.value c)

(* --- tracing ------------------------------------------------------- *)

let disabled_is_transparent () =
  check_bool "disabled" false (Trace.enabled ());
  check_int "with_span passes through" 42 (Trace.with_span "x" (fun () -> 42));
  (* annotate outside a session is a no-op, not an error *)
  Trace.annotate "k" 1.

let span_parent_links () =
  let (), spans =
    Trace.run (fun () ->
        Trace.with_span "outer" (fun () ->
            Trace.with_span "inner" (fun () ->
                Trace.annotate "k" 1.5;
                Trace.annotate "k" 2.5)))
  in
  let find name = List.find (fun s -> s.Trace.name = name) spans in
  let outer = find "outer" and inner = find "inner" in
  check_int "two spans" 2 (List.length spans);
  check_int "outer is top-level" (-1) outer.Trace.parent;
  check_int "inner under outer" outer.Trace.id inner.Trace.parent;
  check_bool "repeated annotation accumulates" true
    (inner.Trace.kv = [ ("k", 4.0) ]);
  check_bool "session closed" false (Trace.enabled ())

let spans_across_domains () =
  let results, spans =
    Trace.run (fun () ->
        Trace.with_span "fanout" (fun () ->
            Parallel.map ~domains:4
              (fun i -> Trace.with_span "worker" (fun () -> i * i))
              (List.init 8 (fun i -> i))))
  in
  check_bool "map result intact" true
    (results = List.map (fun i -> i * i) (List.init 8 (fun i -> i)));
  let fanout = List.find (fun s -> s.Trace.name = "fanout") spans in
  let workers = List.filter (fun s -> s.Trace.name = "worker") spans in
  check_int "every worker span collected" 8 (List.length workers);
  List.iter
    (fun w -> check_int "worker parented under fanout" fanout.Trace.id w.Trace.parent)
    workers;
  check_bool "top-level total positive" true (Trace.top_level_total spans >= 0.)

(* --- observer effect ----------------------------------------------- *)

(* Tracing a rewrite changes nothing about its answer: same rewritings,
   same completeness, and the same chosen plan cost downstream. *)
let traced_equals_untraced =
  let gen = Gen.pair gen_query (gen_views ~max_views:3 ~max_atoms:2) in
  make_qcheck ~name:"traced rewrite = untraced rewrite" gen print_instance
    (fun (query, views) ->
      let plain = Corecover.gmrs ~query ~views () in
      let traced, spans = Trace.run (fun () -> Corecover.gmrs ~query ~views ()) in
      List.equal Query.equal plain.Corecover.rewritings traced.Corecover.rewritings
      && plain.Corecover.completeness = traced.Corecover.completeness
      && List.exists (fun s -> s.Trace.name = "corecover") spans)

let traced_equals_untraced_plan =
  let gen =
    Gen.triple gen_query (gen_views ~max_views:3 ~max_atoms:2) gen_database
  in
  make_qcheck ~count:60 ~name:"traced plan cost = untraced plan cost" gen
    print_with_db
    (fun (query, views, db) ->
      let select r view_db =
        Select.best_m2 ~memo:(Subplan.create ()) ~filters:r.Corecover.filters
          view_db r.Corecover.rewritings
      in
      let run () =
        let r = Corecover.all_minimal ~query ~views () in
        let view_db = Materialize.views db views in
        select r view_db
      in
      let plain = run () in
      let traced, _ = Trace.run run in
      match (plain, traced) with
      | None, None -> true
      | Some a, Some b ->
          a.Select.m2_cost = b.Select.m2_cost
          && Query.equal a.Select.m2_rewriting b.Select.m2_rewriting
      | _ -> false)

(* --- Prometheus exposition format ---------------------------------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let dump_conformance () =
  let h = Metrics.histogram ~help:"conformance probe" "test_obs_conform_ms" in
  Metrics.observe h 0.5;
  Metrics.observe h 5.;
  Metrics.observe h 1e9;
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Metrics.dump ppf;
  Format.pp_print_flush ppf ();
  let text = Buffer.contents buf in
  check_bool "HELP line" true
    (contains text "# HELP test_obs_conform_ms conformance probe");
  check_bool "TYPE histogram" true
    (contains text "# TYPE test_obs_conform_ms histogram");
  check_bool "TYPE counter somewhere" true (contains text " counter\n");
  check_bool "+Inf bucket" true
    (contains text "test_obs_conform_ms_bucket{le=\"+Inf\"} 3");
  check_bool "_sum series" true (contains text "test_obs_conform_ms_sum ");
  check_bool "_count series" true (contains text "test_obs_conform_ms_count 3");
  (* buckets are cumulative: counts along the le-ladder never decrease *)
  let lines = String.split_on_char '\n' text in
  let prefix = "test_obs_conform_ms_bucket{" in
  let bucket_counts =
    List.filter_map
      (fun l ->
        if
          String.length l >= String.length prefix
          && String.sub l 0 (String.length prefix) = prefix
        then
          match String.rindex_opt l ' ' with
          | Some i ->
              int_of_string_opt (String.sub l (i + 1) (String.length l - i - 1))
          | None -> None
        else None)
      lines
  in
  check_bool "at least one bucket line" true (List.length bucket_counts > 1);
  let rec ascending = function
    | a :: (b :: _ as tl) -> a <= b && ascending tl
    | _ -> true
  in
  check_bool "buckets cumulative" true (ascending bucket_counts)

(* --- q-error -------------------------------------------------------- *)

let qerror_units () =
  check_bool "perfect estimate" true (Profile.qerror ~est:10. ~actual:10 = 1.);
  check_bool "under by 100x" true (Profile.qerror ~est:1. ~actual:100 = 100.);
  check_bool "over by 100x" true (Profile.qerror ~est:100. ~actual:1 = 100.);
  check_bool "empty estimated empty is perfect" true
    (Profile.qerror ~est:0. ~actual:0 = 1.);
  check_bool "no estimate propagates nan" true
    (Float.is_nan (Profile.qerror ~est:Float.nan ~actual:5));
  let q = Qerror.create () in
  check_bool "empty acc mean is nan" true (Float.is_nan (Qerror.mean_q q));
  Qerror.observe q 2.;
  Qerror.observe q 8.;
  Qerror.observe q Float.nan;
  Qerror.observe q 0.5 (* clamps to 1 *);
  check_int "nan ignored" 3 (Qerror.count q);
  check_bool "max" true (Qerror.max_q q = 8.);
  (* geometric mean of {2, 8, 1} = (16)^(1/3) *)
  check_bool "geometric mean" true
    (Float.abs (Qerror.mean_q q -. (16. ** (1. /. 3.))) < 1e-9)

(* --- operator profiles ---------------------------------------------- *)

let profile_tree_shape () =
  let p = Profile.create ~name:"q" () in
  let prof = Some p in
  Profile.step prof ~op:"exec" ~name:"q" (fun n ->
      Profile.set n "rows_in" 10.;
      Profile.step prof ~op:"select" ~name:"r" (fun c ->
          Profile.set c "rows_out" 4.;
          Profile.set c "est_rows" 8.);
      Profile.step prof ~op:"join" ~name:"s" (fun c ->
          Profile.set c "build_rows" 4.;
          Profile.set c "rows_out" 2.;
          Profile.set c "est_rows" 2.);
      Profile.set n "rows_out" 2.);
  let spans = Profile.finish p in
  (* operators come back in execution preorder, each under its parent *)
  (match spans with
  | [ root; e; a; b ] ->
      check_bool "root is the query operator" true
        (root.Trace.name = "query q" && root.Trace.parent = -1);
      check_bool "exec under the root" true
        (e.Trace.name = "exec q" && e.Trace.parent = root.Trace.id);
      check_bool "select first" true
        (a.Trace.name = "select r" && a.Trace.parent = e.Trace.id);
      check_bool "join second" true
        (b.Trace.name = "join s" && b.Trace.parent = e.Trace.id);
      check_bool "annotations in recording order" true
        (b.Trace.kv = [ ("build_rows", 4.); ("rows_out", 2.); ("est_rows", 2.) ])
  | _ -> Alcotest.fail "expected four spans");
  (* worst estimate over the tree: select is off 2x, join is exact *)
  check_bool "max qerror" true (Profile.max_qerror spans = 2.);
  check_bool "selection accuracy by relation" true
    (Profile.selection_qerrors spans = [ ("r", 2.) ]);
  let rendered = Format.asprintf "%a" Profile.pp_tree spans in
  check_bool "tree names operators" true
    (contains rendered "select" && contains rendered "join");
  check_bool "tree shows est vs actual" true
    (contains rendered "out=4 est=8.0 q=2.00");
  let json = Trace.chrome_json spans in
  check_bool "one chrome event per operator" true
    (List.for_all (fun s -> contains json ("{\"name\":\"" ^ s.Trace.name ^ "\"")) spans);
  check_bool "row counts become event args" true
    (contains json "\"args\":{\"build_rows\":4,\"rows_out\":2,\"est_rows\":2}")

let profiled_off_is_transparent () =
  (* with no profile every entry point is a pass-through *)
  let r = Profile.step None ~op:"exec" (fun n ->
      Profile.set n "rows_in" 3.;
      Profile.set n "rows_out" 3.;
      41 + 1)
  in
  check_int "step None passes through" 42 r

(* --- trace sessions ------------------------------------------------- *)

(* Two domains each inside their own [Trace.run], and a third outside
   every session, record at the same time: the barriers hold each run
   open until all three have recorded.  Each run gets exactly its own
   domain's spans. *)
let runs_isolated () =
  let arrived = Atomic.make 0 and recorded = Atomic.make 0 in
  let await counter =
    Atomic.incr counter;
    while Atomic.get counter < 3 do Domain.cpu_relax () done
  in
  let record tag =
    await arrived;
    for _ = 1 to 50 do
      Trace.with_span tag ignore
    done;
    await recorded
  in
  let traced tag = Domain.spawn (fun () -> snd (Trace.run (fun () -> record tag))) in
  let left = traced "left" and right = traced "right" in
  let untraced = Domain.spawn (fun () -> record "untraced") in
  let left = Domain.join left and right = Domain.join right in
  Domain.join untraced;
  check_int "left count" 50 (List.length left);
  check_int "right count" 50 (List.length right);
  check_bool "left spans pure" true
    (List.for_all (fun s -> s.Trace.name = "left") left);
  check_bool "right spans pure" true
    (List.for_all (fun s -> s.Trace.name = "right") right);
  check_bool "no session leaks" false (Trace.enabled ())

let chrome_json_roundtrip () =
  let (), spans =
    Trace.run (fun () ->
        Trace.with_span "outer" (fun () -> Trace.with_span "inner" (fun () -> ())))
  in
  let json = Trace.chrome_json spans in
  check_bool "traceEvents wrapper" true (contains json "\"traceEvents\":[");
  check_bool "outer event" true (contains json "\"name\":\"outer\"");
  check_bool "inner event" true (contains json "\"name\":\"inner\"");
  check_bool "microsecond timestamps" true (contains json "\"ts\":");
  check_bool "escaping" true
    (Trace.json_escape "a\"b\\c\n" = "a\\\"b\\\\c\\n")

(* --- flight recorder ------------------------------------------------ *)

let recorder_basic () =
  Recorder.reset ();
  Recorder.append ~kind:"rewrite" ~trace:7 ~latency_ms:1.5 ~source:"miss"
    ~answers:3 ~detail:"q(X)" ();
  Recorder.append ~kind:"plan" ~trace:8 ~qerror:2.5 ~slow:true ();
  let records = Recorder.dump () in
  check_int "two records" 2 (List.length records);
  (match records with
  | [ a; b ] ->
      check_bool "oldest first" true (a.Recorder.seq < b.Recorder.seq);
      check_bool "fields kept" true
        (a.Recorder.kind = "rewrite" && a.Recorder.trace = 7
        && a.Recorder.answers = 3 && a.Recorder.source = "miss");
      check_bool "unset answer is -1" true (b.Recorder.answers = -1);
      check_bool "render is one line" true
        (not (String.contains (Recorder.render a) '\n'));
      check_bool "render carries the detail" true
        (contains (Recorder.render a) "q(X)");
      check_bool "json has the kind" true
        (contains (Recorder.to_json b) "\"kind\":\"plan\"");
      check_bool "nan qerror renders as null-free dash" true
        (contains (Recorder.render a) "qerror=-")
  | _ -> Alcotest.fail "expected two records");
  (match Recorder.find_trace 8 with
  | Some r -> check_bool "find_trace" true (r.Recorder.kind = "plan")
  | None -> Alcotest.fail "trace 8 not found");
  check_bool "missing trace" true (Recorder.find_trace 999 = None);
  Recorder.set_enabled false;
  Recorder.append ~kind:"ignored" ();
  check_int "disabled appends are dropped" 2 (List.length (Recorder.dump ()));
  Recorder.reset ()

let recorder_wraparound () =
  Recorder.reset ();
  let n = Recorder.capacity + 100 in
  for i = 0 to n - 1 do
    Recorder.append ~kind:"w" ~answers:i ()
  done;
  let records = Recorder.dump () in
  check_int "ring keeps capacity records" Recorder.capacity
    (List.length records);
  (* the survivors are exactly the newest [capacity] appends, in order *)
  List.iteri
    (fun i r -> check_int "survivor" (n - Recorder.capacity + i) r.Recorder.answers)
    records;
  Recorder.reset ()

let recorder_stress () =
  (* 4 domains race 1000 appends each into a 512-slot ring: every
     record a dump returns must be internally consistent (no torn
     reads), seqs distinct, and the ring full *)
  Recorder.reset ();
  let per_domain = 1000 in
  let worker d () =
    for i = 0 to per_domain - 1 do
      let tag = (d * 1_000_000) + i in
      Recorder.append ~kind:"stress" ~trace:tag ~answers:tag
        ~detail:(string_of_int tag) ()
    done
  in
  let domains = List.init 4 (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join domains;
  let records = Recorder.dump () in
  check_int "ring full after stress" Recorder.capacity (List.length records);
  List.iter
    (fun r ->
      check_bool "record not torn" true
        (r.Recorder.kind = "stress"
        && r.Recorder.trace = r.Recorder.answers
        && r.Recorder.detail = string_of_int r.Recorder.trace))
    records;
  let seqs = List.map (fun r -> r.Recorder.seq) records in
  let sorted = List.sort_uniq compare seqs in
  check_int "seqs distinct" (List.length seqs) (List.length sorted);
  check_bool "dump ordered by seq" true (seqs = List.sort compare seqs);
  Recorder.reset ()

let suite =
  [
    Alcotest.test_case "histogram bucket boundaries" `Quick bucket_boundaries;
    Alcotest.test_case "nan and negative samples clamp" `Quick clamped_samples;
    Alcotest.test_case "p50/p90/p99 readout" `Quick quantile_readout;
    Alcotest.test_case "overflow-bucket quantile" `Quick overflow_quantile;
    Alcotest.test_case "counter merges across domains" `Quick counter_cross_domain;
    Alcotest.test_case "disabled tracer is transparent" `Quick disabled_is_transparent;
    Alcotest.test_case "span parent links and annotations" `Quick span_parent_links;
    Alcotest.test_case "spans cross Parallel.map domains" `Quick spans_across_domains;
    Alcotest.test_case "metrics dump is Prometheus-conformant" `Quick
      dump_conformance;
    Alcotest.test_case "q-error units and accumulators" `Quick qerror_units;
    Alcotest.test_case "profile tree shape and rendering" `Quick
      profile_tree_shape;
    Alcotest.test_case "profiling off is transparent" `Quick
      profiled_off_is_transparent;
    Alcotest.test_case "scoped trace sessions are isolated" `Quick runs_isolated;
    Alcotest.test_case "chrome trace export" `Quick chrome_json_roundtrip;
    Alcotest.test_case "flight recorder basics" `Quick recorder_basic;
    Alcotest.test_case "flight recorder wraparound" `Quick recorder_wraparound;
    Alcotest.test_case "flight recorder multi-domain stress" `Quick
      recorder_stress;
    traced_equals_untraced;
    traced_equals_untraced_plan;
  ]
