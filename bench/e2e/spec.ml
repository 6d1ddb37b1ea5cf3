(* What the benchmark measures: its workloads, its end-to-end metrics and
   their regression bound, and its per-layer metrics.  BENCHMARK.json at
   the root of the repository is this table as [vplan_e2e manifest]
   prints it; the smoke test diffs the two.  README.md says which
   end-to-end metric each per-layer metric should move. *)

type better = Lower | Higher
type metric = { name : string; unit_ : string; better : better }

let workloads =
  [
    ( "rewrite_hot",
      "1000 star views; every request is a renamed variant of a 219-query pool \
       already cached, so CoreCover never runs and net, protocol and service \
       dominate" );
    ( "rewrite_cold",
      "same catalog; 657 distinct queries cycle through the 512-entry rewrite \
       cache, so every request misses and the CoreCover phases dominate" );
    ( "plan_data",
      "100 path views over 2 x 2000 rows; clients cycle exact plan, explain \
       analyze and 10 estimated plans, so cost, views and exec dominate" );
    ( "catalog_churn",
      "star catalog on a durable store; one client adds and removes a view \
       copy between reads, so fsync and cache invalidation show beside hot \
       reads" );
  ]

let workload_names = List.map fst workloads

(* The share of its median by which any end-to-end metric may worsen
   before a change counts as a regression.  It is wide because the
   2-vCPU shared VM the benchmark was built on alternates between slow
   and fast phases of 20-60 s (a fixed CPU loop runs up to 1.6x faster
   in one than the other): run-to-run spreads of 5-20% are the host's.
   README.md records the measured spreads. *)
let bound = 0.25

let metric name unit_ better = { name; unit_; better }

let end_to_end =
  [
    metric "setup_s" "s" Lower;
    metric "ok_qps" "1/s" Higher;
    metric "p50_ms" "ms" Lower;
    metric "p90_ms" "ms" Lower;
    metric "p99_ms" "ms" Lower;
    metric "server_cpu_ms_per_req" "ms" Lower;
    metric "peak_rss_mb" "MB" Lower;
  ]

let per_layer =
  [
    metric "net.health_rtt_p50_ms" "ms" Lower;
    metric "protocol.parse_ms" "ms" Lower;
    metric "protocol.handle_ms" "ms" Lower;
    metric "protocol.render_ms" "ms" Lower;
    metric "service.call_ms" "ms" Lower;
    metric "service.canonicalize_ms" "ms" Lower;
    metric "service.alloc_kw_per_req" "kw" Lower;
    metric "service.hit_ratio" "ratio" Higher;
    metric "catalog.create_ms" "ms" Lower;
    metric "catalog.add_ms" "ms" Lower;
    metric "catalog.remove_ms" "ms" Lower;
    metric "store.append_ms" "ms" Lower;
    metric "rewrite.minimize_ms" "ms" Lower;
    metric "rewrite.view_tuples_ms" "ms" Lower;
    metric "rewrite.tuple_cores_ms" "ms" Lower;
    metric "rewrite.set_cover_ms" "ms" Lower;
    metric "rewrite.corecover_ms" "ms" Lower;
    metric "rewrite.alloc_kw_per_req" "kw" Lower;
    metric "rewrite.view_tuples" "count" Lower;
    metric "rewrite.tuple_classes" "count" Lower;
    metric "rewrite.covers" "count" Lower;
    metric "stats.collect_ms" "ms" Lower;
    metric "views.materialize_ms" "ms" Lower;
    metric "views.materialized_rows" "count" Lower;
    metric "cost.rank_ms" "ms" Lower;
    metric "cost.select_exact_ms" "ms" Lower;
    metric "cost.memo_hit_ratio" "ratio" Higher;
    metric "cost.pruned_ratio" "ratio" Higher;
    metric "cost.select_est_ms" "ms" Lower;
    metric "cost.estimate_ctx_ms" "ms" Lower;
    metric "cost.candidates" "count" Lower;
    metric "exec.intern_ms" "ms" Lower;
    metric "exec.answers_ms" "ms" Lower;
    metric "exec.rows_out" "count" Lower;
    metric "ledger.unattributed_frac" "ratio" Lower;
    metric "trace.overhead_frac" "ratio" Lower;
  ]

(* Window length of one run. *)
let run_seconds = 20

let manifest () =
  let open Json in
  let metric extra m =
    Obj
      ([
         ("name", Str m.name);
         ("unit", Str m.unit_);
         ("better", Str (match m.better with Lower -> "lower" | Higher -> "higher"));
       ]
      @ extra)
  in
  Obj
    [
      ("command", Arr [ Str "bash"; Str "bench/e2e/run.sh" ]);
      ("paths", Arr [ Str "bench/e2e" ]);
      ("run_seconds", Num (float_of_int run_seconds));
      ( "workloads",
        Arr (List.map (fun (n, why) -> Obj [ ("name", Str n); ("why", Str why) ]) workloads) );
      ("end_to_end", Arr (List.map (metric [ ("bound", Num bound) ]) end_to_end));
      ("per_layer", Arr (List.map (metric []) per_layer));
    ]
