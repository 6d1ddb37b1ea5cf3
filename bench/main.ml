(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 7) plus the worked cost-model examples, and adds
   two ablations.

   Usage:
     dune exec bench/main.exe                 # everything, quick settings
     dune exec bench/main.exe -- all --full   # paper-scale settings
     dune exec bench/main.exe -- fig6a fig7   # selected experiments
     dune exec bench/main.exe -- micro        # bechamel micro-benchmarks

   Experiments (see DESIGN.md for the per-experiment index):
     table2    Table 2: tuple-cores of Example 4.1
     fig6a/b   star queries: time to generate all GMRs vs #views
     fig7      star queries: equivalence classes of views / view tuples
     fig8a/b   chain queries: time to generate all GMRs vs #views
     fig9      chain queries: equivalence classes
     example42 CoreCover vs MiniCon vs bucket on Example 4.2
     example61 cost model M3 on Example 6.1 / Figure 5
     ablation  equivalence-class grouping on/off
     joinorder M2 join-ordering: DP vs connected-DP vs exhaustive
     shapes    CoreCover across star/chain/cycle/clique workloads
     endpoints the paper's chain head-policy remark
     openworld certain answers: inverse rules vs MiniCon MCR
     estimate  statistics-based join ordering vs true sizes
     joins     hash-join engine vs backtracking evaluator at data scale
     acyclic   Yannakakis over the GYO join tree vs the general pipeline,
               and join-tree containment DP vs backtracking
     serve     resident service: cold vs warm-cache throughput
     loadgen   TCP serving tier: closed-loop load at 1/8/64/256 clients
     optimize  plan selection: branch-and-bound engine vs naive candidate loop
     observe   tracing overhead: CoreCover with the span tracer on vs off
     recovery  durable store: warm restart vs cold preprocessing, replay
     micro     bechamel micro-benchmarks of the core operations *)

open Vplan

let now_ms () = Unix.gettimeofday () *. 1000.

let time_ms f =
  let t0 = now_ms () in
  let r = f () in
  (r, now_ms () -. t0)

type settings = {
  view_counts : int list;
  queries_per_point : int;
}

let quick = { view_counts = [ 10; 50; 100; 200; 400; 600; 800; 1000 ]; queries_per_point = 3 }

let full =
  {
    view_counts = [ 10; 50; 100; 200; 300; 400; 500; 600; 700; 800; 900; 1000 ];
    queries_per_point = 40;
  }

(* CoreCover performance knobs, settable from the command line; every
   combination produces the same rewritings. *)
let opt_domains = ref 1

(* resource-governance knobs: a fresh budget is created per timed query so
   limits apply to each run rather than the whole sweep *)
let opt_timeout = ref None
let opt_max_steps = ref None
let opt_max_covers = ref None
let any_truncated = ref false

let budget_of_opts () = Budget.of_limits ?deadline_ms:!opt_timeout ?max_steps:!opt_max_steps ()

let corecover_gmrs ~query ~views () =
  let r =
    Corecover.gmrs ?budget:(budget_of_opts ()) ?max_covers:!opt_max_covers
      ~domains:!opt_domains ~query ~views ()
  in
  (match r.completeness with
  | Corecover.Truncated _ -> any_truncated := true
  | Corecover.Complete -> ());
  r

(* Rows of the timing figures, collected for [--out FILE.json]. *)
type json_row = {
  experiment : string;
  row_views : int;
  row_queries : int;
  avg_ms : float;
  min_ms : float;
  max_ms : float;
  avg_gmrs : float;
  row_truncated : int;
}

let json_rows : json_row list ref = ref []

(* Metrics of the [serve] experiment, collected for [--out FILE.json]. *)
type service_metrics = {
  sm_views : int;
  sm_distinct : int;
  sm_repetitions : int;
  sm_cold_qps : float;
  sm_warm_qps : float;
  sm_speedup : float;
  sm_hit_rate : float;
  sm_p50_ms : float;
  sm_p95_ms : float;
  sm_truncated : int;
}

let service_metrics : service_metrics option ref = ref None

(* Rows of the [loadgen] experiment (the TCP serving tier under N
   concurrent client connections), collected for [--out FILE.json]. *)
type server_row = {
  sv_clients : int;
  sv_sent : int;
  sv_ok : int;
  sv_hits : int;
  sv_shed : int;
  sv_retried : int;
  sv_errors : int;
  sv_qps : float;
  sv_p50_ms : float;
  sv_p99_ms : float;
}

let server_rows : server_row list ref = ref []

(* Catalog swap under live traffic: generation resets observed, and
   whether any in-flight request was dropped or malformed. *)
type server_swap = {
  sw_clients : int;
  sw_resets : int;
  sw_ok : int;
  sw_errors : int;
  sw_closed_early : int;
}

let server_swap : server_swap option ref = ref None
let server_workers = ref 2
let server_queue = ref 128

(* Rows of the [optimize] experiment, collected for [--out FILE.json]. *)
type optimizer_row = {
  or_views : int;
  or_queries : int;
  or_candidates : float;  (* avg candidate rewritings per query *)
  or_baseline_ms : float;  (* naive per-candidate DP fold, total *)
  or_engine_ms : float;  (* ranked + memoized + branch-and-bound, total *)
  or_speedup : float;
  or_cost_equal : bool;  (* engine choice = unpruned fold on every query *)
}

let optimizer_rows : optimizer_row list ref = ref []

(* Rows of the [joins] experiment (hash-join engine at data scale),
   collected for [--out FILE.json]. *)
type joins_row = {
  jn_rows : int;  (* tuples drawn per base relation *)
  jn_answers : int;
  jn_intern_ms : float;  (* one-time columnar interning of the base *)
  jn_exec_ms : float;  (* hash-join engine, build + probe *)
  jn_eval_ms : float;  (* backtracking evaluator; 0 when skipped *)
  jn_speedup : float;  (* eval_ms / exec_ms; 0 when eval skipped *)
  jn_rows_per_sec : float;  (* base rows joined per second by the engine *)
  jn_oracle_equal : bool;  (* engine = Eval (when run) = Indexed_db *)
  jn_est_cost : float;  (* estimated M2 cells of the statistics-chosen order *)
  jn_exact_cost : int;  (* realized M2 cells of that same order *)
  jn_cost_equal : bool;  (* no order beats the statistics-chosen one *)
  jn_rows_pruned : int;  (* semi-join prunes during one engine run *)
  jn_partitions : int;  (* radix partitions during one engine run *)
}

let joins_rows : joins_row list ref = ref []

(* Rows of the [acyclic] experiment (Yannakakis fast path vs the
   general hash-join pipeline), collected for [--out FILE.json]. *)
type acyclic_row = {
  ac_shape : string;
  ac_rows : int;  (* tuples drawn per base relation *)
  ac_answers : int;
  ac_fast_ms : float;  (* full Yannakakis over the join tree *)
  ac_pairwise_ms : float;  (* pairwise semi-join heuristic (acyclic off) *)
  ac_general_ms : float;  (* plain hash join, no reduction at all *)
  ac_speedup : float;  (* general_ms / fast_ms *)
  ac_rows_per_sec : float;  (* base rows joined per second, fast path *)
  ac_answers_equal : bool;  (* fast = pairwise = general = oracles *)
  ac_cost_equal : bool;  (* tree-seeded planner = unseeded estimated DP *)
  ac_rows_pruned : int;  (* semi-join prunes during one fast run *)
  ac_partitions : int;  (* radix partitions during one fast run *)
  ac_fastpath : bool;  (* the acyclic classifier actually fired *)
}

let acyclic_rows : acyclic_row list ref = ref []

(* Containment half of the [acyclic] experiment: DP over the join tree
   vs backtracking. *)
type acyclic_containment = {
  cn_checks : int;
  cn_depth : int;  (* levels of the branching ladder target *)
  cn_fast_ms : float;
  cn_slow_ms : float;
  cn_speedup : float;
  cn_agree : bool;  (* DP verdict = backtracking verdict on every check *)
  cn_fastpath : bool;  (* the fastpath counter moved during the fast run *)
}

let acyclic_containment : acyclic_containment option ref = ref None

(* Metrics of the [observe] experiment, collected for [--out FILE.json]. *)
type observe_metrics = {
  ob_views : int;
  ob_queries : int;
  ob_passes : int;
  ob_untraced_ms : float;
  ob_traced_ms : float;
  ob_overhead_pct : float;
  ob_spans : float;  (* average spans recorded per traced request *)
  ob_recorder_overhead_pct : float;  (* flight recorder on vs off *)
  ob_analyze_overhead_pct : float;  (* Exec.answers profiled vs plain *)
}

let observe_metrics : observe_metrics option ref = ref None

(* Metrics of the [recovery] experiment, collected for [--out FILE.json]. *)
type recovery_metrics = {
  rc_views : int;
  rc_cold_ms : float;  (* Catalog.create: full preprocessing *)
  rc_warm_ms : float;  (* Store.open_dir + snapshot restore *)
  rc_speedup : float;
  rc_replay_records : int;
  rc_replay_ms : float;  (* Store.open_dir + journal replay *)
  rc_journal_kb : float;
  rc_enospc_readonly : bool;  (* mutation refused after injected ENOSPC *)
  rc_reads_degraded : bool;  (* rewrite still answers while readonly *)
}

let recovery_metrics : recovery_metrics option ref = ref None

let write_json ~mode oc =
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"mode\": %S,\n" mode;
  Printf.fprintf oc "  \"domains\": %d,\n" !opt_domains;
  (match !service_metrics with
  | None -> ()
  | Some m ->
      Printf.fprintf oc
        "  \"service\": { \"views\": %d, \"distinct_queries\": %d, \"repetitions\": %d,"
        m.sm_views m.sm_distinct m.sm_repetitions;
      Printf.fprintf oc
        " \"cold_qps\": %.1f, \"warm_qps\": %.1f, \"speedup\": %.1f, \"hit_rate\": %.3f,"
        m.sm_cold_qps m.sm_warm_qps m.sm_speedup m.sm_hit_rate;
      Printf.fprintf oc " \"p50_ms\": %.3f, \"p95_ms\": %.3f, \"truncated\": %d },\n"
        m.sm_p50_ms m.sm_p95_ms m.sm_truncated);
  (match !observe_metrics with
  | None -> ()
  | Some m ->
      Printf.fprintf oc
        "  \"observe\": { \"views\": %d, \"queries\": %d, \"passes\": %d,"
        m.ob_views m.ob_queries m.ob_passes;
      Printf.fprintf oc " \"untraced_ms\": %.3f, \"traced_ms\": %.3f,"
        m.ob_untraced_ms m.ob_traced_ms;
      Printf.fprintf oc " \"overhead_pct\": %.2f, \"spans_per_request\": %.1f,"
        m.ob_overhead_pct m.ob_spans;
      Printf.fprintf oc
        " \"recorder_overhead_pct\": %.2f, \"analyze_overhead_pct\": %.2f },\n"
        m.ob_recorder_overhead_pct m.ob_analyze_overhead_pct);
  (match !recovery_metrics with
  | None -> ()
  | Some m ->
      Printf.fprintf oc
        "  \"recovery\": { \"views\": %d, \"cold_ms\": %.3f, \"warm_ms\": %.3f, \"speedup\": %.1f,"
        m.rc_views m.rc_cold_ms m.rc_warm_ms m.rc_speedup;
      Printf.fprintf oc
        " \"replay_records\": %d, \"replay_ms\": %.3f, \"journal_kb\": %.1f,"
        m.rc_replay_records m.rc_replay_ms m.rc_journal_kb;
      Printf.fprintf oc " \"enospc_readonly\": %b, \"reads_degraded\": %b },\n"
        m.rc_enospc_readonly m.rc_reads_degraded);
  (match List.rev !server_rows with
  | [] -> ()
  | rows ->
      Printf.fprintf oc "  \"server\": {\n";
      Printf.fprintf oc "    \"workers\": %d, \"queue\": %d, \"cpu_cores\": %d,\n"
        !server_workers !server_queue
        (Domain.recommended_domain_count ());
      let qps_at n =
        List.find_map
          (fun r -> if r.sv_clients = n then Some r.sv_qps else None)
          rows
      in
      (match (qps_at 1, qps_at 64) with
      | Some one, Some sixty_four when one > 0. ->
          Printf.fprintf oc "    \"scaling_64_over_1\": %.2f,\n"
            (sixty_four /. one)
      | _ -> ());
      (match !server_swap with
      | None -> ()
      | Some s ->
          Printf.fprintf oc
            "    \"swap\": { \"clients\": %d, \"generation_resets\": %d, \
             \"ok\": %d, \"errors\": %d, \"closed_early\": %d },\n"
            s.sw_clients s.sw_resets s.sw_ok s.sw_errors s.sw_closed_early);
      Printf.fprintf oc "    \"rows\": [";
      List.iteri
        (fun i r ->
          Printf.fprintf oc "%s\n      { \"clients\": %d, \"sent\": %d,"
            (if i = 0 then "" else ",")
            r.sv_clients r.sv_sent;
          Printf.fprintf oc
            " \"ok\": %d, \"hits\": %d, \"shed\": %d, \"retried\": %d, \
             \"errors\": %d,"
            r.sv_ok r.sv_hits r.sv_shed r.sv_retried r.sv_errors;
          Printf.fprintf oc
            " \"qps\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f }" r.sv_qps
            r.sv_p50_ms r.sv_p99_ms)
        rows;
      Printf.fprintf oc "\n    ]\n  },\n");
  (match List.rev !optimizer_rows with
  | [] -> ()
  | rows ->
      Printf.fprintf oc "  \"optimizer\": [";
      List.iteri
        (fun i r ->
          Printf.fprintf oc "%s\n    { \"views\": %d, \"queries\": %d,"
            (if i = 0 then "" else ",")
            r.or_views r.or_queries;
          Printf.fprintf oc
            " \"candidates\": %.1f, \"baseline_ms\": %.3f, \"engine_ms\": %.3f,"
            r.or_candidates r.or_baseline_ms r.or_engine_ms;
          Printf.fprintf oc " \"speedup\": %.2f, \"cost_equal\": %b }" r.or_speedup
            r.or_cost_equal)
        rows;
      Printf.fprintf oc "\n  ],\n");
  (match List.rev !joins_rows with
  | [] -> ()
  | rows ->
      Printf.fprintf oc "  \"joins\": [";
      List.iteri
        (fun i r ->
          Printf.fprintf oc "%s\n    { \"rows\": %d, \"answers\": %d,"
            (if i = 0 then "" else ",")
            r.jn_rows r.jn_answers;
          Printf.fprintf oc
            " \"intern_ms\": %.3f, \"exec_ms\": %.3f, \"eval_ms\": %.3f, \
             \"speedup\": %.1f,"
            r.jn_intern_ms r.jn_exec_ms r.jn_eval_ms r.jn_speedup;
          Printf.fprintf oc
            " \"rows_per_sec\": %.0f, \"oracle_equal\": %b, \"est_cost\": %.1f, \
             \"exact_cost\": %d, \"cost_equal\": %b,"
            r.jn_rows_per_sec r.jn_oracle_equal r.jn_est_cost r.jn_exact_cost
            r.jn_cost_equal;
          Printf.fprintf oc " \"rows_pruned\": %d, \"partitions\": %d }"
            r.jn_rows_pruned r.jn_partitions)
        rows;
      Printf.fprintf oc "\n  ],\n");
  (match (!acyclic_containment, List.rev !acyclic_rows) with
  | None, [] -> ()
  | cn, rows ->
      Printf.fprintf oc "  \"acyclic\": {\n";
      (match cn with
      | None -> ()
      | Some c ->
          Printf.fprintf oc
            "    \"containment\": { \"checks\": %d, \"ladder_depth\": %d, \
             \"fast_ms\": %.3f, \"slow_ms\": %.3f, \"speedup\": %.2f, \
             \"agree\": %b, \"fastpath_taken\": %b },\n"
            c.cn_checks c.cn_depth c.cn_fast_ms c.cn_slow_ms c.cn_speedup
            c.cn_agree c.cn_fastpath);
      Printf.fprintf oc "    \"rows\": [";
      List.iteri
        (fun i r ->
          Printf.fprintf oc "%s\n      { \"shape\": %S, \"rows\": %d, \"answers\": %d,"
            (if i = 0 then "" else ",")
            r.ac_shape r.ac_rows r.ac_answers;
          Printf.fprintf oc
            " \"fast_ms\": %.3f, \"pairwise_ms\": %.3f, \"general_ms\": %.3f, \
             \"speedup\": %.2f, \"rows_per_sec\": %.0f,"
            r.ac_fast_ms r.ac_pairwise_ms r.ac_general_ms r.ac_speedup
            r.ac_rows_per_sec;
          Printf.fprintf oc
            " \"answers_equal\": %b, \"cost_equal\": %b, \"rows_pruned\": %d, \
             \"partitions\": %d, \"fastpath_taken\": %b }"
            r.ac_answers_equal r.ac_cost_equal r.ac_rows_pruned r.ac_partitions
            r.ac_fastpath)
        rows;
      Printf.fprintf oc "\n    ]\n  },\n");
  Printf.fprintf oc "  \"rows\": [";
  List.iteri
    (fun i r ->
      Printf.fprintf oc "%s\n    { \"experiment\": %S, \"views\": %d, \"queries\": %d,"
        (if i = 0 then "" else ",")
        r.experiment r.row_views r.row_queries;
      Printf.fprintf oc
        " \"avg_ms\": %.3f, \"min_ms\": %.3f, \"max_ms\": %.3f, \"gmrs\": %.1f, \"truncated\": %d }"
        r.avg_ms r.min_ms r.max_ms r.avg_gmrs r.row_truncated)
    (List.rev !json_rows);
  Printf.fprintf oc "\n  ]\n}\n";
  close_out oc

let header title = Format.printf "@.== %s ==@." title

(* ------------------------------------------------------------------ *)
(* Figures 6 and 8: time for CoreCover to generate all GMRs.           *)

let time_figure ~name ~shape ~nondistinguished ~settings ~title =
  header title;
  Format.printf "%8s %12s %12s %12s %8s %10s@." "views" "avg-ms" "min-ms" "max-ms" "GMRs"
    "truncated";
  List.iter
    (fun num_views ->
      let times = ref [] and gmrs = ref 0 and skipped = ref 0 and truncated = ref 0 in
      for qi = 0 to settings.queries_per_point - 1 do
        let config =
          {
            Generator.default with
            shape;
            num_views;
            nondistinguished_per_view = nondistinguished;
            seed = 1000 + (qi * 7919) + num_views;
          }
        in
        (* as in the paper, workloads without a rewriting are discarded;
           with few views and hidden variables none may exist at all *)
        match Generator.generate_with_rewriting ~max_attempts:100 config with
        | exception Failure _ -> incr skipped
        | inst ->
            let result, ms =
              time_ms (fun () ->
                  corecover_gmrs ~query:inst.Generator.query ~views:inst.views ())
            in
            times := ms :: !times;
            gmrs := !gmrs + List.length result.rewritings;
            (match result.Corecover.completeness with
            | Corecover.Truncated _ -> incr truncated
            | Corecover.Complete -> ())
      done;
      match !times with
      | [] -> Format.printf "%8d %12s@." num_views "(no rewritable workload)"
      | times ->
          let n = List.length times in
          let avg = List.fold_left ( +. ) 0. times /. float_of_int n in
          let min_t = List.fold_left min infinity times in
          let max_t = List.fold_left max neg_infinity times in
          json_rows :=
            {
              experiment = name;
              row_views = num_views;
              row_queries = n;
              avg_ms = avg;
              min_ms = min_t;
              max_ms = max_t;
              avg_gmrs = float_of_int !gmrs /. float_of_int n;
              row_truncated = !truncated;
            }
            :: !json_rows;
          Format.printf "%8d %12.1f %12.1f %12.1f %8.1f %10d@." num_views avg min_t max_t
            (float_of_int !gmrs /. float_of_int n)
            !truncated)
    settings.view_counts

(* ------------------------------------------------------------------ *)
(* Figures 7 and 9: equivalence classes of views and view tuples.      *)

let classes_figure ~shape ~settings ~title =
  header title;
  Format.printf "%8s %8s %14s %12s %14s@." "views" "classes" "view-tuples" "rep-tuples"
    "tuples-all-views";
  List.iter
    (fun num_views ->
      let config =
        { Generator.default with shape; num_views; seed = 4242 + num_views }
      in
      let inst = Generator.generate_with_rewriting ~max_attempts:100 config in
      let r = Corecover.gmrs ~query:inst.Generator.query ~views:inst.views () in
      (* Figure 7(b) plots the number of view tuples over ALL views, next
         to the (nearly constant) representatives; [stats.num_view_tuples]
         counts tuples of the representative views only. *)
      let all_tuples =
        View_tuple.compute ~query:r.minimized_query inst.views
      in
      Format.printf "%8d %8d %14d %12d %14d@." num_views r.stats.num_view_classes
        r.stats.num_view_tuples r.stats.num_representative_tuples
        (List.length all_tuples))
    settings.view_counts

(* ------------------------------------------------------------------ *)
(* Table 2: tuple-cores of Example 4.1.                                *)

let table2 () =
  header "Table 2: tuple-cores of the view tuples in Example 4.1";
  let query = Parser.parse_rule_exn "q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)." in
  let views =
    List.map Parser.parse_rule_exn
      [ "v1(A, B) :- a(A, B), a(B, B)."; "v2(C, D) :- a(C, E), b(C, D)." ]
  in
  let r = Corecover.gmrs ~query ~views () in
  Format.printf "%-14s %-30s@." "view tuple" "tuple-core C(tv)";
  List.iter
    (fun (tv, core) ->
      Format.printf "%-14s %-30s@."
        (Atom.to_string tv.View_tuple.atom)
        (String.concat ", " (List.map Atom.to_string core.Tuple_core.subgoals)))
    r.cores;
  Format.printf "GMR: %s@."
    (String.concat " | " (List.map Query.to_string r.rewritings))

(* ------------------------------------------------------------------ *)
(* Example 4.2: CoreCover vs MiniCon vs bucket.                        *)

let example42 () =
  header "Example 4.2: CoreCover vs MiniCon vs bucket (k = 2..6)";
  Format.printf "%4s %14s %14s %12s %14s %14s %14s@." "k" "corecover-ms" "minicon-ms"
    "bucket-ms" "cc-smallest" "mc-smallest" "mc-MCDs";
  List.iter
    (fun k ->
      let pair i = Printf.sprintf "a%d(X, Z%d), b%d(Z%d, Y)" i i i i in
      let body = String.concat ", " (List.init k (fun i -> pair (i + 1))) in
      let query = Parser.parse_rule_exn (Printf.sprintf "q(X, Y) :- %s." body) in
      let views =
        Parser.parse_rule_exn (Printf.sprintf "v(X, Y) :- %s." body)
        :: List.init (k - 1) (fun i ->
               Parser.parse_rule_exn
                 (Printf.sprintf "v%d(X, Y) :- %s." (i + 1) (pair (i + 1))))
      in
      let cc, cc_ms = time_ms (fun () -> Corecover.gmrs ~query ~views ()) in
      let mc, mc_ms = time_ms (fun () -> Minicon.run ~query ~views ()) in
      (* the bucket algorithm's cartesian product explodes around k = 4:
         report the blow-up instead of timing it *)
      let bucket_column =
        match time_ms (fun () -> Oracle.Bucket.run ~mode:`Equivalent ~query ~views ()) with
        | _, bk_ms -> Printf.sprintf "%12.2f" bk_ms
        | exception Invalid_argument _ -> Printf.sprintf "%12s" "(>1e5 cands)"
      in
      let smallest = function
        | [] -> 0
        | l -> List.fold_left (fun acc (p : Query.t) -> min acc (List.length p.body)) max_int l
      in
      Format.printf "%4d %14.2f %14.2f %s %14d %14d %14d@." k cc_ms mc_ms bucket_column
        (smallest cc.rewritings) (smallest mc.rewritings) (List.length mc.mcds))
    [ 2; 3; 4; 5; 6 ]

(* ------------------------------------------------------------------ *)
(* Example 6.1: cost model M3 on the Figure 5 instance.                *)

let example61 () =
  header "Example 6.1 / Figure 5: M3 costs (cells)";
  let query = Parser.parse_rule_exn "q(A) :- r(A, A), t(A, B), s(B, B)." in
  let views =
    List.map Parser.parse_rule_exn
      [ "v1(A, B) :- r(A, A), s(B, B)."; "v2(A, B) :- t(A, B), s(B, B)." ]
  in
  let p1 = Parser.parse_rule_exn "q(A) :- v1(A, B), v2(A, C)." in
  let p2 = Parser.parse_rule_exn "q(A) :- v1(A, B), v2(A, B)." in
  let base =
    let pairs p l = List.map (fun (x, y) -> (p, [ Term.Int x; Term.Int y ])) l in
    Database.of_facts
      (pairs "r" [ (1, 1) ]
      @ pairs "s" [ (2, 2); (4, 4); (6, 6); (8, 8) ]
      @ pairs "t" [ (1, 2); (3, 4); (5, 6); (7, 8) ])
  in
  let img = Materialize.image base views in
  Format.printf "%-24s %-18s %8s@." "plan" "strategy" "cost";
  let report name (p : Query.t) strategy =
    let plan =
      match strategy with
      | `Supplementary -> M3.supplementary ~head:p.head p.body
      | `Heuristic -> M3.heuristic ~views ~query ~head:p.head p.body
    in
    Format.printf "%-24s %-18s %8d@." name
      (match strategy with `Supplementary -> "supplementary" | `Heuristic -> "heuristic")
      (M3.cost_of_plan img plan)
  in
  report "P1 = v1(A,B),v2(A,C)" p1 `Supplementary;
  report "P2 = v1(A,B),v2(A,B)" p2 `Supplementary;
  report "P2 = v1(A,B),v2(A,B)" p2 `Heuristic

(* ------------------------------------------------------------------ *)
(* Ablation: equivalence-class grouping on/off.                        *)

let ablation ~settings =
  header "Ablation: CoreCover with and without equivalence-class grouping";
  Format.printf "%8s %8s %16s %16s@." "shape" "views" "grouped-ms" "ungrouped-ms";
  List.iter
    (fun (shape, name) ->
      List.iter
        (fun num_views ->
          let config =
            { Generator.default with shape; num_views; seed = 31 + num_views }
          in
          let inst = Generator.generate_with_rewriting config in
          let query = inst.Generator.query and views = inst.views in
          let _, on_ms = time_ms (fun () -> Corecover.gmrs ~query ~views ()) in
          (* grouping off: every view is its own class *)
          let _, off_ms =
            time_ms (fun () ->
                Corecover.gmrs ~view_classes:(View_tuple.Classes.of_views views) ~query
                  ~views ())
          in
          Format.printf "%8s %8d %16.1f %16.1f@." name num_views on_ms off_ms)
        (List.filter (fun n -> n <= 400) settings.view_counts))
    [ (Generator.Star, "star"); (Generator.Chain, "chain") ]

(* ------------------------------------------------------------------ *)
(* Join-ordering ablation: DP over subsets vs exhaustive.              *)

let joinorder () =
  header "M2 join ordering: DP over subsets vs connected-DP vs exhaustive";
  Format.printf "%10s %12s %14s %16s %10s %12s@." "subgoals" "dp-ms" "connected-ms"
    "exhaustive-ms" "same-cost" "conn-loss";
  List.iter
    (fun n ->
      (* single-subgoal views force an n-subgoal rewriting; small
         relations keep the cross-product subsets affordable *)
      let config =
        { Generator.default with shape = Generator.Chain; query_subgoals = n;
          num_relations = n; view_subgoals_min = 1; view_subgoals_max = 1;
          num_views = 3 * n; seed = 77 + n }
      in
      let inst = Generator.generate_with_rewriting config in
      let query = inst.Generator.query and views = inst.views in
      let base = Generator.base_database ~tuples:12 ~domain:10 inst in
      let r = Corecover.gmrs ~query ~views () in
      match r.rewritings with
      | [] -> Format.printf "%10d (no rewriting)@." n
      | p :: _ ->
          let src = M2.exact (Materialize.image base views) in
          let dp, dp_ms = time_ms (fun () -> M2.optimal src p.Query.body) in
          let dp_cost = match dp with Some (_, c) -> c | None -> assert false in
          let connected, conn_ms =
            time_ms (fun () -> M2.optimal ~connected:true src p.Query.body)
          in
          let conn_loss =
            match connected with
            | Some (_, c) -> Printf.sprintf "%10.2fx" (c /. dp_cost)
            | None -> Printf.sprintf "%10s" "n/a"
          in
          if n <= 6 then begin
            (* every permutation costed on its own *)
            let ex_cost, ex_ms =
              time_ms (fun () ->
                  List.fold_left
                    (fun acc o -> Float.min acc (M2.cost src o))
                    Float.infinity
                    (Orderings.permutations p.Query.body))
            in
            Format.printf "%10d %12.2f %14.2f %16.2f %10b %s@."
              (List.length p.Query.body) dp_ms conn_ms ex_ms (dp_cost = ex_cost) conn_loss
          end
          else
            Format.printf "%10d %12.2f %14.2f %16s %10s %s@."
              (List.length p.Query.body) dp_ms conn_ms "(skipped)" "-" conn_loss)
    [ 3; 4; 5; 6; 7; 8 ]

(* ------------------------------------------------------------------ *)
(* Extension: all four query shapes side by side.                      *)

let shapes ~settings =
  header "Extension: CoreCover across query shapes (avg ms per query)";
  let shapes =
    [
      (Generator.Star, "star", 8);
      (Generator.Chain, "chain", 8);
      (Generator.Cycle, "cycle", 8);
      (Generator.Clique, "clique", 6);
    ]
  in
  Format.printf "%8s" "views";
  List.iter (fun (_, name, _) -> Format.printf " %10s" name) shapes;
  Format.printf "@.";
  List.iter
    (fun num_views ->
      Format.printf "%8d" num_views;
      List.iter
        (fun (shape, _, query_subgoals) ->
          let total = ref 0. in
          for qi = 0 to settings.queries_per_point - 1 do
            let config =
              { Generator.default with shape; query_subgoals; num_views;
                seed = 60 + (qi * 7919) + num_views }
            in
            match Generator.generate_with_rewriting ~max_attempts:100 config with
            | exception Failure _ -> ()
            | inst ->
                let _, ms =
                  time_ms (fun () ->
                      Corecover.gmrs ~query:inst.Generator.query ~views:inst.views ())
                in
                total := !total +. ms
          done;
          Format.printf " %10.1f" (!total /. float_of_int settings.queries_per_point))
        shapes;
      Format.printf "@.")
    (List.filter (fun n -> n <= 400) settings.view_counts)

(* ------------------------------------------------------------------ *)
(* The paper's chain-head-policy remark: "If we only kept the head and
   tail variables of the chain as the head arguments of the query and
   views, then there are very few rewritings generated."  With contiguous
   segment views the tuple-cores provably coincide under both policies
   (hidden interior variables are existential in the query too), so this
   reproduction finds identical counts; see EXPERIMENTS.md for the
   analysis of the deviation. *)

let endpoints () =
  header "Chain head policy: endpoints-only vs all variables distinguished";
  Format.printf "%8s %22s %22s@." "views" "all-dist (found/GMRs)" "endpoints (found/GMRs)";
  List.iter
    (fun num_views ->
      let attempt ~endpoints seed =
        let config =
          { Generator.default with shape = Generator.Chain; num_views;
            chain_endpoints_only = endpoints; seed }
        in
        let inst = Generator.generate config in
        if Corecover.has_rewriting ~query:inst.Generator.query ~views:inst.views then
          let r = Corecover.gmrs ~query:inst.Generator.query ~views:inst.views () in
          (1, List.length r.rewritings)
        else (0, 0)
      in
      let tally ~endpoints =
        List.fold_left
          (fun (found, gmrs) seed ->
            let f, g = attempt ~endpoints seed in
            (found + f, gmrs + g))
          (0, 0)
          (List.init 10 (fun i -> 300 + (i * 977) + num_views))
      in
      let fa, ga = tally ~endpoints:false in
      let fe, ge = tally ~endpoints:true in
      Format.printf "%8d %14d / %-7d %14d / %-7d@." num_views fa ga fe ge)
    [ 20; 50; 100; 200 ]

(* ------------------------------------------------------------------ *)
(* Extension: plan quality of statistics-based ordering vs true sizes. *)

let estimate () =
  header "Extension: join ordering from statistics vs true sizes (M2 cells)";
  Format.printf "%6s %12s %14s %16s %8s@." "run" "true-opt" "estimated-plan" "quality-loss"
    "subgoals";
  let ratios = ref [] in
  for run = 1 to 10 do
    let config =
      { Generator.default with shape = Generator.Chain; query_subgoals = 5;
        num_relations = 5; view_subgoals_min = 1; view_subgoals_max = 1;
        num_views = 15; seed = 500 + run }
    in
    match Generator.generate_with_rewriting ~max_attempts:100 config with
    | exception Failure _ -> ()
    | inst ->
        let query = inst.Generator.query and views = inst.views in
        (* skewed data: the uniform-assumption estimator actually errs *)
        let base =
          Datagen.for_query_skewed (Prng.create (900 + run)) ~tuples:25 ~domain:12 query
        in
        let img = Materialize.image base views in
        let r = Corecover.gmrs ~query ~views () in
        (match r.rewritings with
        | [] -> ()
        | p :: _ ->
            let plan src = Option.get (M2.optimal src p.Query.body) in
            let est_order, _ = plan (M2.estimated (Estimate.analyze (Interned.database img))) in
            let exact = M2.exact img in
            let realized = M2.cost exact est_order in
            let _, true_opt = plan exact in
            let ratio = realized /. Float.max 1. true_opt in
            ratios := ratio :: !ratios;
            Format.printf "%6d %12.0f %14.0f %15.2fx %8d@." run true_opt realized ratio
              (List.length p.Query.body))
  done;
  (match !ratios with
  | [] -> ()
  | rs ->
      let avg = List.fold_left ( +. ) 0. rs /. float_of_int (List.length rs) in
      Format.printf "average quality loss: %.2fx over %d runs@." avg (List.length rs))

(* ------------------------------------------------------------------ *)
(* Data-scale execution: hash-join engine vs backtracking evaluator    *)
(* on a three-way chain join, with the plan-choice agreement between   *)
(* the statistics-only and the materialized cost modes.                *)

let joins ~settings () =
  header "Data-scale execution: hash-join engine vs backtracking evaluator";
  let query =
    Parser.parse_rule_exn "q(X1, X3) :- r0(0, X1), r1(X1, X2), r2(X2, X3)."
  in
  let sizes =
    if settings.queries_per_point > quick.queries_per_point then
      [ 10_000; 100_000; 1_000_000 ]
    else [ 10_000; 100_000 ]
  in
  Format.printf "%9s %9s %10s %10s %9s %12s %7s %6s@." "rows" "answers" "exec-ms"
    "eval-ms" "speedup" "rows/s" "oracle" "cost=";
  List.iter
    (fun n ->
      let domain = max 4 (n / 10) in
      let spec predicate = { Datagen.predicate; arity = 2; tuples = n; domain } in
      let db =
        (* the last column is Zipf-skewed: the engine and the estimator
           both have to cope with non-uniform data *)
        Datagen.random_dist (Prng.create (41 + n))
          [
            (spec "r0", []);
            (spec "r1", []);
            (spec "r2", [ Datagen.Uniform; Datagen.Zipf 0.9 ]);
          ]
      in
      let interned, intern_ms = time_ms (fun () -> Interned.of_database db) in
      (* warm-up run, metered for the reduction/partition counters *)
      let pruned0 = Metrics.value (Metrics.counter "vplan_semijoin_rows_pruned_total") in
      let parts0 = Metrics.value (Metrics.counter "vplan_join_partitions_total") in
      ignore (Exec.answers interned query);
      let rows_pruned =
        Metrics.value (Metrics.counter "vplan_semijoin_rows_pruned_total") - pruned0
      in
      let partitions =
        Metrics.value (Metrics.counter "vplan_join_partitions_total") - parts0
      in
      let best = ref infinity and ans = ref (Relation.empty 2) in
      for _ = 1 to 3 do
        let r, ms = time_ms (fun () -> Exec.answers interned query) in
        ans := r;
        if ms < !best then best := ms
      done;
      let exec_ms = !best in
      (* the backtracking evaluator rescans whole relations per binding,
         so it is only run up to 10^5 rows *)
      let run_eval = n <= 100_000 in
      let eval_ans, eval_ms =
        if run_eval then
          let r, ms = time_ms (fun () -> Oracle.Eval.answers db query) in
          (Some r, ms)
        else (None, 0.)
      in
      let indexed = Indexed_db.answers (Indexed_db.of_database db) query in
      let oracle_equal =
        Relation.equal !ans indexed
        && match eval_ans with None -> true | Some r -> Relation.equal !ans r
      in
      (* plan-choice agreement: the order picked from statistics alone
         must not be beatable by any order under the materialized cost *)
      let est = Estimate.of_stats (Stats.collect db) in
      let est_order, est_cost = Option.get (M2.optimal (M2.estimated est) query.Query.body) in
      let exact = M2.exact interned in
      let exact_cost = M2.cost exact est_order in
      let cost_equal =
        M2.optimal ~bound:exact_cost exact query.Query.body = None
      in
      let speedup = if run_eval && exec_ms > 0. then eval_ms /. exec_ms else 0. in
      let rows_per_sec =
        if exec_ms > 0. then float_of_int (3 * n) /. (exec_ms /. 1000.) else 0.
      in
      joins_rows :=
        {
          jn_rows = n;
          jn_answers = Relation.cardinality !ans;
          jn_intern_ms = intern_ms;
          jn_exec_ms = exec_ms;
          jn_eval_ms = eval_ms;
          jn_speedup = speedup;
          jn_rows_per_sec = rows_per_sec;
          jn_oracle_equal = oracle_equal;
          jn_est_cost = est_cost;
          jn_exact_cost = int_of_float exact_cost;
          jn_cost_equal = cost_equal;
          jn_rows_pruned = rows_pruned;
          jn_partitions = partitions;
        }
        :: !joins_rows;
      Format.printf "%9d %9d %10.2f %10s %9s %12.0f %7b %6b@." n
        (Relation.cardinality !ans) exec_ms
        (if run_eval then Printf.sprintf "%.2f" eval_ms else "-")
        (if run_eval then Printf.sprintf "%.1fx" speedup else "-")
        rows_per_sec oracle_equal cost_equal)
    sizes

(* ------------------------------------------------------------------ *)
(* X11: acyclic fast path — full Yannakakis over the GYO join tree vs  *)
(* the general hash-join pipeline, and join-tree containment DP vs     *)
(* backtracking.                                                       *)

(* Target for the containment A/B: a branching "ladder" of depth d over
   one relation — from the distinguished root every walk forks twice per
   level and dies at the leaves.  A chain probe of length d+1 has no
   homomorphic image, but backtracking discovers that only after
   exploring all ~2^d partial walks, while the join-tree DP answers in
   O(d · edges) hash work.  Probes of length ≤ d are satisfiable and
   both sides find those quickly, so the probe mix exercises both
   verdicts. *)
let ladder_query depth =
  let v p i = Term.Var (Printf.sprintf "%s%d" p i) in
  let body =
    List.concat
      (List.init depth (fun i ->
           [
             Atom.make "r" [ v "A" i; v "A" (i + 1) ];
             Atom.make "r" [ v "A" i; v "B" (i + 1) ];
             Atom.make "r" [ v "B" i; v "A" (i + 1) ];
             Atom.make "r" [ v "B" i; v "B" (i + 1) ];
           ]))
  in
  Query.make_exn (Atom.make "p" [ v "A" 0 ]) body

let chain_probe m =
  let v i = Term.Var (Printf.sprintf "Y%d" i) in
  Query.make_exn
    (Atom.make "p" [ v 0 ])
    (List.init m (fun i -> Atom.make "r" [ v i; v (i + 1) ]))

let acyclic_bench ~settings () =
  header "X11: acyclic fast path — Yannakakis execution and join-tree containment";
  let full = settings.queries_per_point > quick.queries_per_point in
  let m_pruned = Metrics.counter "vplan_semijoin_rows_pruned_total" in
  let m_parts = Metrics.counter "vplan_join_partitions_total" in
  let m_acyclic = Metrics.counter "vplan_acyclic_queries_total" in
  let m_fastpath = Metrics.counter "vplan_containment_fastpath_total" in
  (* -- containment: join-tree DP vs backtracking -------------------- *)
  let depth = if full then 12 else 10 in
  let checks = 1000 in
  let target = ladder_query depth in
  let probes =
    [| chain_probe (depth - 1); chain_probe depth; chain_probe (depth + 1) |]
  in
  let run_checks ~fastpath =
    let verdicts = Array.make checks false in
    let _, ms =
      time_ms (fun () ->
          for i = 0 to checks - 1 do
            verdicts.(i) <-
              Containment.is_contained ~fastpath target
                probes.(i mod Array.length probes)
          done)
    in
    (verdicts, ms)
  in
  let f0 = Metrics.value m_fastpath in
  let fast_verdicts, cfast_ms = run_checks ~fastpath:true in
  let cfastpath = Metrics.value m_fastpath > f0 in
  let slow_verdicts, cslow_ms = run_checks ~fastpath:false in
  let cagree = fast_verdicts = slow_verdicts in
  Format.printf "%8s %8s %12s %13s %9s %7s %10s@." "checks" "depth" "tree-dp-ms"
    "backtrack-ms" "speedup" "agree" "fastpath";
  Format.printf "%8d %8d %12.1f %13.1f %8.1fx %7b %10b@." checks depth cfast_ms
    cslow_ms
    (cslow_ms /. Float.max 1e-9 cfast_ms)
    cagree cfastpath;
  acyclic_containment :=
    Some
      {
        cn_checks = checks;
        cn_depth = depth;
        cn_fast_ms = cfast_ms;
        cn_slow_ms = cslow_ms;
        cn_speedup = cslow_ms /. Float.max 1e-9 cfast_ms;
        cn_agree = cagree;
        cn_fastpath = cfastpath;
      };
  (* -- execution: Yannakakis vs pairwise vs plain hash join --------- *)
  let shapes =
    [
      ( "path",
        Parser.parse_rule_exn
          "q(X0, X6) :- r0(X0, X1), r1(X1, X2), r2(X2, X3), r3(X3, X4), \
           r4(X4, X5), r5(X5, X6).",
        6 );
      ( "star",
        Parser.parse_rule_exn
          "q(C) :- r0(C, X1), r1(C, X2), r2(C, X3), r3(C, X4).",
        4 );
      ( "chain",
        Parser.parse_rule_exn
          "q(X0, X3) :- r0(X0, X1), r1(X1, X2), r2(X2, X3).",
        3 );
    ]
  in
  let sizes =
    if full then [ 10_000; 100_000; 1_000_000 ] else [ 10_000; 100_000 ]
  in
  (* sparse data (domain = 4x rows, so most join keys miss) leaves many
     dangling tuples for the reduction to prune; the last relation's
     value column is Zipf-skewed *)
  let mk_db natoms n =
    Datagen.random_dist
      (Prng.create (53 + natoms + n))
      (List.init natoms (fun i ->
           ( {
               Datagen.predicate = "r" ^ string_of_int i;
               arity = 2;
               tuples = n;
               domain = 4 * n;
             },
             if i = natoms - 1 then [ Datagen.Uniform; Datagen.Zipf 0.9 ]
             else [] )))
  in
  Format.printf "%6s %9s %9s %10s %12s %11s %9s %6s %6s@." "shape" "rows"
    "answers" "yk-ms" "pairwise-ms" "general-ms" "speedup" "equal" "cost=";
  List.iter
    (fun (name, query, natoms) ->
      (* independent oracle on a small instance: the backtracking
         evaluator rescans relations per binding, so it only sees 2000
         rows — the engines must agree with it there *)
      let eval_ok =
        let db = mk_db natoms 2000 in
        let interned = Interned.of_database db in
        Relation.equal
          (Exec.answers ~acyclic:true interned query)
          (Oracle.Eval.answers db query)
      in
      List.iter
        (fun n ->
          let db = mk_db natoms n in
          let interned = Interned.of_database db in
          let time_mode ~semijoin ~acyclic =
            let ans = ref (Exec.answers ~semijoin ~acyclic interned query) in
            let best = ref infinity in
            for _ = 1 to 3 do
              let r, ms =
                time_ms (fun () ->
                    Exec.answers ~semijoin ~acyclic interned query)
              in
              ans := r;
              if ms < !best then best := ms
            done;
            (!ans, !best)
          in
          (* counters around one metered fast run *)
          let p0 = Metrics.value m_pruned
          and t0 = Metrics.value m_parts
          and a0 = Metrics.value m_acyclic in
          ignore (Exec.answers ~acyclic:true interned query);
          let rows_pruned = Metrics.value m_pruned - p0 in
          let partitions = Metrics.value m_parts - t0 in
          let fastpath = Metrics.value m_acyclic > a0 in
          let fast, fast_ms = time_mode ~semijoin:true ~acyclic:true in
          let pairwise, pairwise_ms = time_mode ~semijoin:true ~acyclic:false in
          let general, general_ms = time_mode ~semijoin:false ~acyclic:false in
          let indexed = Indexed_db.answers (Indexed_db.of_database db) query in
          let answers_equal =
            eval_ok && Relation.equal fast pairwise
            && Relation.equal fast general
            && Relation.equal fast indexed
          in
          (* planner identity, statistics only: the tree-seeded selection
             returns exactly the unseeded estimated DP's plan, and the
             tree order never beats it *)
          let est = Estimate.of_stats (Stats.collect db) in
          let src = M2.estimated est in
          let dp = M2.optimal src query.Query.body in
          let cost_equal =
            match
              ( Hypergraph.tree_order query.Query.body,
                dp,
                Select.best_m2_estimated est [ query ] )
            with
            | Some order, Some (dp_order, dp_cost), Some c ->
                dp_cost <= M2.cost src order
                && c.Select.cost = dp_cost
                && List.equal Atom.equal c.Select.plan dp_order
            | _ -> false
          in
          let speedup = general_ms /. Float.max 1e-9 fast_ms in
          let rows_per_sec =
            if fast_ms > 0. then
              float_of_int (natoms * n) /. (fast_ms /. 1000.)
            else 0.
          in
          acyclic_rows :=
            {
              ac_shape = name;
              ac_rows = n;
              ac_answers = Relation.cardinality fast;
              ac_fast_ms = fast_ms;
              ac_pairwise_ms = pairwise_ms;
              ac_general_ms = general_ms;
              ac_speedup = speedup;
              ac_rows_per_sec = rows_per_sec;
              ac_answers_equal = answers_equal;
              ac_cost_equal = cost_equal;
              ac_rows_pruned = rows_pruned;
              ac_partitions = partitions;
              ac_fastpath = fastpath;
            }
            :: !acyclic_rows;
          Format.printf "%6s %9d %9d %10.2f %12.2f %11.2f %8.1fx %6b %6b@." name
            n (Relation.cardinality fast) fast_ms pairwise_ms general_ms speedup
            answers_equal cost_equal)
        sizes)
    shapes

(* ------------------------------------------------------------------ *)
(* Extension: open-world certain answers, two algorithms.              *)

let openworld () =
  header "Extension: certain answers — inverse rules vs MiniCon MCR";
  Format.printf "%8s %8s %16s %14s %10s %8s@." "views" "tuples" "inverse-ms" "minicon-ms"
    "agree" "answers";
  List.iter
    (fun num_views ->
      (* short chain workload with one hidden variable per view:
         equivalent rewritings usually do not exist, so the open-world
         fallback is exercised for real; a dense little instance keeps
         certain answers nonempty *)
      let config =
        { Generator.default with shape = Generator.Chain; query_subgoals = 3;
          num_relations = 3; num_views; nondistinguished_per_view = 1;
          seed = 9000 + num_views }
      in
      let inst = Generator.generate config in
      let query = inst.Generator.query and views = inst.views in
      let base = Generator.base_database ~tuples:8 ~domain:8 inst in
      let img = Materialize.image base views in
      let view_db = Interned.database img in
      let certain_ir, ir_ms =
        time_ms (fun () -> Inverse_rules.certain_answers ~views ~query view_db)
      in
      let mcr, mc_ms = time_ms (fun () -> Minicon.maximally_contained ~query ~views ()) in
      let certain_mc =
        match mcr with
        | None -> Relation.empty (Relation.arity certain_ir)
        | Some u -> Exec.answers_ucq img u
      in
      Format.printf "%8d %8d %16.2f %14.2f %10b %8d@." num_views
        (Database.total_size view_db) ir_ms mc_ms
        (Relation.equal certain_ir certain_mc)
        (Relation.cardinality certain_ir))
    (* MiniCon's combination count — and the UCQ minimization after it —
       explodes combinatorially with the view count, while the
       inverse-rules algorithm stays polynomial in the view instance:
       exactly the trade-off the two papers describe. *)
    [ 5; 10; 20; 40 ]

(* ------------------------------------------------------------------ *)
(* Resident service: cold vs warm-cache throughput at fig6a scale.     *)

let serve ~settings =
  let num_views = List.fold_left max 0 settings.view_counts in
  header
    (Printf.sprintf "Resident service: cold vs warm throughput (star, %d views)"
       num_views);
  let config =
    { Generator.default with shape = Generator.Star; num_views; seed = 7100 + num_views }
  in
  let inst = Generator.generate_with_rewriting ~max_attempts:100 config in
  let q0 = inst.Generator.query and views = inst.views in
  (* distinct queries: rotations of the head argument list.  The head
     order is part of the query, so every rotation is a different
     canonical form (a cold miss), while its body — and hence its
     rewritability — is unchanged. *)
  let rotate k l =
    let n = List.length l in
    if n = 0 then l
    else List.init n (fun i -> List.nth l ((i + k) mod n))
  in
  let distinct =
    List.init
      (max 1 (List.length q0.Query.head.Atom.args))
      (fun k ->
        Query.make_exn
          (Atom.make q0.Query.head.Atom.pred (rotate k q0.Query.head.Atom.args))
          q0.Query.body)
  in
  (* warm rounds resubmit each distinct query as a fresh alpha-variant
     with the body reversed: isomorphic, so a cache hit, but never the
     stored rendering *)
  let variant round (q : Query.t) =
    let sigma =
      Subst.of_list
        (List.mapi
           (fun i x -> (x, Term.Var (Printf.sprintf "W%d_%d" round i)))
           (Query.vars q))
    in
    let r = Query.apply sigma q in
    Query.make_exn r.Query.head (List.rev r.Query.body)
  in
  let service =
    Service.create (Catalog.create_exn (List.map View.of_query views))
  in
  let run_phase queries =
    let _, ms =
      time_ms (fun () ->
          List.iter
            (fun q ->
              let o =
                Service.rewrite ?budget:(budget_of_opts ())
                  ?max_covers:!opt_max_covers ~domains:!opt_domains service q
              in
              match o.Service.completeness with
              | Corecover.Truncated _ -> any_truncated := true
              | Corecover.Complete -> ())
            queries)
    in
    (List.length queries, ms)
  in
  let repetitions = 20 in
  let cold_n, cold_ms = run_phase distinct in
  let warm_queries =
    List.concat (List.init repetitions (fun r -> List.map (variant r) distinct))
  in
  let warm_n, warm_ms = run_phase warm_queries in
  let qps n ms = float_of_int n /. (ms /. 1000.) in
  let cold_qps = qps cold_n cold_ms and warm_qps = qps warm_n warm_ms in
  let speedup = warm_qps /. cold_qps in
  let st = Service.stats service in
  let hit_rate =
    float_of_int st.Service.hits /. float_of_int (max 1 st.Service.requests)
  in
  Format.printf "%8s %10s %12s %12s %8s %8s@." "phase" "requests" "total-ms" "qps"
    "hits" "misses";
  Format.printf "%8s %10d %12.1f %12.1f %8d %8d@." "cold" cold_n cold_ms cold_qps 0
    cold_n;
  Format.printf "%8s %10d %12.1f %12.1f %8d %8d@." "warm" warm_n warm_ms warm_qps
    st.Service.hits (st.Service.misses - cold_n);
  Format.printf
    "speedup: %.1fx   hit-rate: %.3f   p50: %.3fms   p95: %.3fms   truncated: %d@."
    speedup hit_rate st.Service.latency.Service.p50_ms
    st.Service.latency.Service.p95_ms st.Service.truncated;
  service_metrics :=
    Some
      {
        sm_views = num_views;
        sm_distinct = List.length distinct;
        sm_repetitions = repetitions;
        sm_cold_qps = cold_qps;
        sm_warm_qps = warm_qps;
        sm_speedup = speedup;
        sm_hit_rate = hit_rate;
        sm_p50_ms = st.Service.latency.Service.p50_ms;
        sm_p95_ms = st.Service.latency.Service.p95_ms;
        sm_truncated = st.Service.truncated;
      }

(* ------------------------------------------------------------------ *)
(* Plan selection: the Select engine vs the naive candidate loop.      *)

(* The pre-engine candidate loop, frozen verbatim: the subset DP as it
   stood before the selection engine landed — [Names.Sset] unions per
   state, every subset's environments materialized eagerly, no sharing
   across candidates, no pruning — folded sequentially keeping the
   earliest minimum.  This replica is the reference both for timing and
   for the exactness check; keeping it in the bench makes the
   engine-vs-loop comparison reproducible as the library evolves. *)
module Legacy_m2 = struct
  let width vars = max 1 (Names.Sset.cardinal vars)

  let relation_cells db (a : Atom.t) =
    Oracle.Eval.relation_size db a * max 1 (Atom.arity a)

  let optimal db body =
    let atoms = Array.of_list body in
    let n = Array.length atoms in
    if n = 0 then ([], 0)
    else if n > 20 then invalid_arg "Legacy_m2.optimal: too many subgoals"
    else begin
      let full = (1 lsl n) - 1 in
      let envs = Array.make (full + 1) None in
      envs.(0) <- Some [ Oracle.Eval.empty_env ];
      let rec envs_of s =
        match envs.(s) with
        | Some e -> e
        | None ->
            let bit = s land -s in
            let i =
              let rec find k = if 1 lsl k = bit then k else find (k + 1) in
              find 0
            in
            let e = Oracle.Eval.extend db (envs_of (s lxor bit)) atoms.(i) in
            envs.(s) <- Some e;
            e
      in
      let subset_width s =
        let vars = ref Names.Sset.empty in
        Array.iteri
          (fun i a ->
            if s land (1 lsl i) <> 0 then vars := Names.Sset.union !vars (Atom.var_set a))
          atoms;
        width !vars
      in
      let ir_cells = Array.make (full + 1) (-1) in
      let cells_of s =
        if ir_cells.(s) >= 0 then ir_cells.(s)
        else begin
          let v = List.length (envs_of s) * subset_width s in
          ir_cells.(s) <- v;
          v
        end
      in
      let best = Array.make (full + 1) max_int in
      let choice = Array.make (full + 1) (-1) in
      best.(0) <- 0;
      for s = 1 to full do
        let ir = cells_of s in
        for i = 0 to n - 1 do
          if s land (1 lsl i) <> 0 then begin
            let prev = best.(s lxor (1 lsl i)) in
            if prev < max_int && prev + ir < best.(s) then begin
              best.(s) <- prev + ir;
              choice.(s) <- i
            end
          end
        done
      done;
      let rec rebuild s acc =
        if s = 0 then acc
        else
          let i = choice.(s) in
          rebuild (s lxor (1 lsl i)) (atoms.(i) :: acc)
      in
      let order = rebuild full [] in
      let relation_costs =
        List.fold_left (fun acc a -> acc + relation_cells db a) 0 body
      in
      (order, best.(full) + relation_costs)
    end
end

let naive_best_m2 view_db candidates =
  List.fold_left
    (fun best (p : Query.t) ->
      let order, cost = Legacy_m2.optimal view_db p.Query.body in
      match best with
      | Some (_, _, c) when c <= cost -> best
      | _ -> Some (p, order, cost))
    None candidates

let optimize ~settings =
  header
    "Plan selection: ranked + memoized + branch-and-bound engine vs naive loop";
  Format.printf "%8s %8s %12s %14s %12s %10s %12s@." "views" "queries" "candidates"
    "baseline-ms" "engine-ms" "speedup" "cost-equal";
  List.iter
    (fun num_views ->
      let base_ms = ref 0. and eng_ms = ref 0. in
      let queries = ref 0 and cands = ref 0 in
      let equal = ref true in
      for qi = 0 to settings.queries_per_point - 1 do
        (* the fig6a star workload, same seeds, over a concrete instance *)
        let config =
          {
            Generator.default with
            shape = Generator.Star;
            num_views;
            seed = 1000 + (qi * 7919) + num_views;
          }
        in
        match Generator.generate_with_rewriting ~max_attempts:100 config with
        | exception Failure _ -> ()
        | inst -> (
            let query = inst.Generator.query and views = inst.views in
            let base = Generator.base_database ~tuples:12 ~domain:10 inst in
            let view_db = Materialize.views base views in
            let r = Corecover.all_minimal ~domains:!opt_domains ~query ~views () in
            match r.Corecover.rewritings with
            | [] -> ()
            | candidates ->
                incr queries;
                cands := !cands + List.length candidates;
                let naive, b_ms =
                  time_ms (fun () -> naive_best_m2 view_db candidates)
                in
                let memo = Subplan.create () in
                let engine, e_ms =
                  time_ms (fun () ->
                      Select.best_m2 ~memo ~domains:!opt_domains view_db candidates)
                in
                base_ms := !base_ms +. b_ms;
                eng_ms := !eng_ms +. e_ms;
                (* cost must match exactly; the chosen order may resolve
                   cost ties differently (the legacy DP scans atoms in
                   the candidate's own order, the engine canonicalizes),
                   so verify the engine's order against its own cost
                   model instead *)
                (match (naive, engine) with
                | Some (_, _, n_cost), Some c ->
                    if c.Select.m2_cost <> n_cost then equal := false;
                    if
                      M2.cost (M2.exact (Interned.of_database view_db)) c.Select.m2_order
                      <> float_of_int c.Select.m2_cost
                    then equal := false
                | None, None -> ()
                | _ -> equal := false))
      done;
      if !queries > 0 then begin
        let speedup = !base_ms /. Float.max 1e-9 !eng_ms in
        let avg_cands = float_of_int !cands /. float_of_int !queries in
        optimizer_rows :=
          {
            or_views = num_views;
            or_queries = !queries;
            or_candidates = avg_cands;
            or_baseline_ms = !base_ms;
            or_engine_ms = !eng_ms;
            or_speedup = speedup;
            or_cost_equal = !equal;
          }
          :: !optimizer_rows;
        Format.printf "%8d %8d %12.1f %14.1f %12.1f %9.1fx %12b@." num_views !queries
          avg_cands !base_ms !eng_ms speedup !equal
      end
      else Format.printf "%8d %8s@." num_views "(no rewritable workload)")
    settings.view_counts

(* ------------------------------------------------------------------ *)
(* Observability: CoreCover with the span tracer on vs off.            *)

let observe ~settings =
  let num_views = List.fold_left max 0 settings.view_counts in
  header
    (Printf.sprintf "Observability overhead: span tracer on vs off (star, %d views)"
       num_views);
  (* the fig6a workload at the sweep's largest point, same seeds *)
  let insts =
    List.filter_map
      (fun qi ->
        let config =
          {
            Generator.default with
            shape = Generator.Star;
            num_views;
            seed = 1000 + (qi * 7919) + num_views;
          }
        in
        match Generator.generate_with_rewriting ~max_attempts:100 config with
        | exception Failure _ -> None
        | inst -> Some inst)
      (List.init settings.queries_per_point Fun.id)
  in
  let passes = 5 in
  let untraced = ref 0. and traced = ref 0. in
  let spans = ref 0 and requests = ref 0 in
  (* each pass runs every query once with the tracer off and once inside
     [Trace.run]; the order flips between passes so cache warmth and
     clock drift hit both sides equally *)
  for pass = 1 to passes do
    List.iter
      (fun (inst : Generator.instance) ->
        let query = inst.Generator.query and views = inst.views in
        let run_off () =
          let _, ms = time_ms (fun () -> corecover_gmrs ~query ~views ()) in
          untraced := !untraced +. ms
        in
        let run_on () =
          let (_, ss), ms =
            time_ms (fun () -> Trace.run (fun () -> corecover_gmrs ~query ~views ()))
          in
          traced := !traced +. ms;
          spans := !spans + List.length ss;
          incr requests
        in
        if pass mod 2 = 1 then (run_off (); run_on ())
        else (run_on (); run_off ()))
      insts
  done;
  let overhead = (!traced -. !untraced) /. Float.max 1e-9 !untraced *. 100. in
  let spans_per_request = float_of_int !spans /. float_of_int (max 1 !requests) in
  Format.printf "%8s %8s %14s %14s %12s %10s@." "queries" "passes" "untraced-ms"
    "traced-ms" "overhead" "spans/req";
  Format.printf "%8d %8d %14.1f %14.1f %11.2f%% %10.1f@." (List.length insts) passes
    !untraced !traced overhead spans_per_request;
  (* flight recorder: the same rewrite workload with one record appended
     per request, ring enabled vs disabled — the always-on cost *)
  let rec_on = ref 0. and rec_off = ref 0. in
  let one_request enabled (inst : Generator.instance) =
    Recorder.set_enabled enabled;
    let r = corecover_gmrs ~query:inst.Generator.query ~views:inst.views () in
    Recorder.append ~kind:"bench"
      ~answers:(List.length r.Corecover.rewritings)
      ~detail:(Atom.to_string inst.Generator.query.Query.head)
      ()
  in
  for pass = 1 to passes do
    List.iter
      (fun inst ->
        let run_off () =
          let (), ms = time_ms (fun () -> one_request false inst) in
          rec_off := !rec_off +. ms
        and run_on () =
          let (), ms = time_ms (fun () -> one_request true inst) in
          rec_on := !rec_on +. ms
        in
        if pass mod 2 = 1 then (run_off (); run_on ())
        else (run_on (); run_off ()))
      insts
  done;
  Recorder.reset ();
  let recorder_overhead =
    (!rec_on -. !rec_off) /. Float.max 1e-9 !rec_off *. 100.
  in
  (* operator profiles: the hash-join engine with a full profile tree
     and estimate callbacks attached vs a plain run, path query over
     skewed data — the [explain analyze] execution cost *)
  let aquery =
    Parser.parse_rule_exn "q(X1, X3) :- r0(0, X1), r1(X1, X2), r2(X2, X3)."
  in
  let n = 100_000 in
  let domain = max 4 (n / 10) in
  let spec predicate = { Datagen.predicate; arity = 2; tuples = n; domain } in
  let db =
    Datagen.random_dist (Prng.create (41 + n))
      [
        (spec "r0", []);
        (spec "r1", []);
        (spec "r2", [ Datagen.Uniform; Datagen.Zipf 0.9 ]);
      ]
  in
  let interned = Interned.of_database db in
  let est = Estimate.of_stats (Stats.collect db) in
  let estimate = Estimate.cardinality est in
  ignore (Exec.answers interned aquery) (* warm-up *);
  let plain = ref 0. and profiled = ref 0. in
  for pass = 1 to passes do
    let run_plain () =
      let _, ms = time_ms (fun () -> Exec.answers interned aquery) in
      plain := !plain +. ms
    and run_profiled () =
      let _, ms =
        time_ms (fun () ->
            let p = Profile.create ~name:"bench" () in
            let r = Exec.answers ~profile:p ~estimate interned aquery in
            ignore (Profile.finish p);
            r)
      in
      profiled := !profiled +. ms
    in
    if pass mod 2 = 1 then (run_plain (); run_profiled ())
    else (run_profiled (); run_plain ())
  done;
  let analyze_overhead =
    (!profiled -. !plain) /. Float.max 1e-9 !plain *. 100.
  in
  Format.printf "%14s %14s %12s %14s %14s %12s@." "recorder-off" "recorder-on"
    "overhead" "plain-exec" "profiled-exec" "overhead";
  Format.printf "%12.1fms %12.1fms %11.2f%% %12.1fms %12.1fms %11.2f%%@."
    !rec_off !rec_on recorder_overhead !plain !profiled analyze_overhead;
  observe_metrics :=
    Some
      {
        ob_views = num_views;
        ob_queries = List.length insts;
        ob_passes = passes;
        ob_untraced_ms = !untraced;
        ob_traced_ms = !traced;
        ob_overhead_pct = overhead;
        ob_spans = spans_per_request;
        ob_recorder_overhead_pct = recorder_overhead;
        ob_analyze_overhead_pct = analyze_overhead;
      }

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks.                                          *)

let micro () =
  header "bechamel micro-benchmarks (monotonic clock, ns/run)";
  let open Bechamel in
  let star =
    Generator.generate_with_rewriting
      { Generator.default with shape = Generator.Star; num_views = 100; seed = 5 }
  in
  let chain =
    Generator.generate_with_rewriting
      { Generator.default with shape = Generator.Chain; num_views = 100; seed = 5 }
  in
  let carloc_q =
    Parser.parse_rule_exn
      "q1(S, C) :- car(M, anderson), loc(anderson, C), part(S, M, C)."
  in
  let carloc_v =
    List.map Parser.parse_rule_exn
      [
        "v1(M, D, C) :- car(M, D), loc(D, C).";
        "v2(S, M, C) :- part(S, M, C).";
        "v3(S) :- car(M, anderson), loc(anderson, C), part(S, M, C).";
        "v4(M, D, C, S) :- car(M, D), loc(D, C), part(S, M, C).";
        "v5(M, D, C) :- car(M, D), loc(D, C).";
      ]
  in
  let tests =
    Test.make_grouped ~name:"vplan"
      [
        Test.make ~name:"corecover-star-100views"
          (Staged.stage (fun () ->
               ignore
                 (Corecover.gmrs ~query:star.Generator.query ~views:star.views ())));
        Test.make ~name:"corecover-chain-100views"
          (Staged.stage (fun () ->
               ignore
                 (Corecover.gmrs ~query:chain.Generator.query ~views:chain.views ())));
        Test.make ~name:"corecover-carloc"
          (Staged.stage (fun () ->
               ignore (Corecover.gmrs ~query:carloc_q ~views:carloc_v ())));
        Test.make ~name:"containment-carloc"
          (Staged.stage (fun () ->
               ignore (Containment.equivalent carloc_q carloc_q)));
        Test.make ~name:"view-tuples-carloc"
          (Staged.stage (fun () ->
               ignore (View_tuple.compute ~query:carloc_q carloc_v)));
      ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~stabilize:true () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> Format.printf "%-36s %14.0f ns/run@." name est
      | Some _ | None -> Format.printf "%-36s (no estimate)@." name)
    results

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* The TCP serving tier under concurrent closed-loop load.             *)

let opt_port = ref None (* drive an external server instead of in-process *)
let opt_clients = ref None (* restrict to a single concurrency point *)
let opt_retries = ref 0 (* resend-on-busy budget per request (0 = off) *)
let opt_backoff_ms = ref 5.0 (* base of the exponential retry backoff *)

(* First integer value of ["key": N] in a flat JSON object. *)
let int_field json key =
  let pat = "\"" ^ key ^ "\":" in
  let plen = String.length pat in
  let n = String.length json in
  let rec find i =
    if i + plen > n then None
    else if String.sub json i plen = pat then begin
      let j = ref (i + plen) in
      let start = !j in
      while !j < n && json.[!j] >= '0' && json.[!j] <= '9' do
        incr j
      done;
      if !j > start then int_of_string_opt (String.sub json start (!j - start))
      else None
    end
    else find (i + 1)
  in
  find 0

let loadgen_bench ~settings =
  header "Network serving tier: closed-loop load, 1 to 256 clients";
  (* The workload is the paper's car-loc-part example: per-request work
     is a warm-cache rewrite of a 3-subgoal query, deliberately tiny so
     the measurement exercises the serving tier — sockets, framing,
     queueing, worker scheduling — rather than CoreCover itself. *)
  let views =
    List.map Parser.parse_rule_exn
      [
        "v1(M, D, C) :- car(M, D), loc(D, C).";
        "v2(S, M, C) :- part(S, M, C).";
        "v4(M, D, C, S) :- car(M, D), loc(D, C), part(S, M, C).";
      ]
  in
  let base_rewrite =
    "rewrite q1(S, C) :- car(M, anderson), loc(anderson, C), part(S, M, C)."
  in
  (* pre-rendered isomorphic variants — alpha-renamed, body rotated: all
     cache hits after the first miss, never the stored rendering *)
  let variants =
    Array.init 64 (fun i ->
        Printf.sprintf
          "rewrite q1(S%d, C%d) :- loc(anderson, C%d), part(S%d, M%d, C%d), \
           car(M%d, anderson)."
          i i i i i i i)
  in
  let catalog_file =
    let f = Filename.temp_file "vplan_loadgen" ".dl" in
    let oc = open_out f in
    List.iter
      (fun v -> Printf.fprintf oc "%s.\n" (Format.asprintf "%a" Query.pp v))
      views;
    close_out oc;
    f
  in
  let local = !opt_port = None in
  let srv, srv_domain, port =
    if local then begin
      let shared = Protocol.create_shared ~domains:1 () in
      Protocol.install_catalog shared
        (Catalog.create_exn (List.map View.of_query views));
      let handler () =
        Protocol.handle_lines_into shared (Protocol.new_session shared)
      in
      let srv =
        Net_server.create ~workers:!server_workers
          ~queue_capacity:!server_queue ~extra_lines:Protocol.extra_lines
          ~handler ()
      in
      let d = Domain.spawn (fun () -> Net_server.run srv) in
      (Some srv, Some d, Net_server.port srv)
    end
    else (None, None, Option.get !opt_port)
  in
  Fun.protect
    ~finally:(fun () ->
      (match srv with Some s -> Net_server.stop s | None -> ());
      (match srv_domain with Some d -> Domain.join d | None -> ());
      Sys.remove catalog_file)
  @@ fun () ->
  (* an external server needs the catalog loaded over the wire *)
  if not local then begin
    let c = Loadgen.Client.connect ~port () in
    (match Loadgen.Client.request c ("catalog load " ^ catalog_file) with
    | l :: _ when String.length l >= 2 && String.sub l 0 2 = "ok" -> ()
    | other ->
        Printf.eprintf "loadgen: catalog load failed: %s\n"
          (String.concat " | " other);
        exit 1);
    Loadgen.Client.close c
  end;
  (* warm: the first miss caches the canonical form, after which every
     variant is a hit *)
  let warmc = Loadgen.Client.connect ~port () in
  ignore (Loadgen.Client.request warmc base_rewrite);
  ignore (Loadgen.Client.request warmc variants.(0));
  Loadgen.Client.close warmc;
  let duration_ms = if settings.queries_per_point > 10 then 3000.0 else 1200.0 in
  let request ~client ~seq =
    variants.(((client * 31) + seq) mod Array.length variants)
  in
  let points =
    match !opt_clients with None -> [ 1; 8; 64; 256 ] | Some n -> [ n ]
  in
  Format.printf "%8s %10s %10s %8s %8s %8s %8s %12s %10s %10s@." "clients"
    "sent" "ok" "hits" "shed" "retried" "errors" "qps" "p50-ms" "p99-ms";
  List.iter
    (fun clients ->
      let r =
        Loadgen.run ~port ~clients ~retries:!opt_retries
          ~backoff_ms:!opt_backoff_ms ~duration_ms ~request ()
      in
      Format.printf "%8d %10d %10d %8d %8d %8d %8d %12.1f %10.3f %10.3f@."
        clients r.Loadgen.sent r.Loadgen.ok r.Loadgen.hits r.Loadgen.shed
        r.Loadgen.retried r.Loadgen.errors r.Loadgen.qps r.Loadgen.p50_ms
        r.Loadgen.p99_ms;
      server_rows :=
        {
          sv_clients = clients;
          sv_sent = r.Loadgen.sent;
          sv_ok = r.Loadgen.ok;
          sv_hits = r.Loadgen.hits;
          sv_shed = r.Loadgen.shed;
          sv_retried = r.Loadgen.retried;
          sv_errors = r.Loadgen.errors;
          sv_qps = r.Loadgen.qps;
          sv_p50_ms = r.Loadgen.p50_ms;
          sv_p99_ms = r.Loadgen.p99_ms;
        }
        :: !server_rows)
    points;
  (match (!opt_clients, List.rev !server_rows) with
  | None, rows -> (
      let qps_at n =
        List.find_map
          (fun r -> if r.sv_clients = n then Some r.sv_qps else None)
          rows
      in
      match (qps_at 1, qps_at 64) with
      | Some one, Some sixty_four when one > 0. ->
          Format.printf "scaling: %.1fx qps at 64 clients vs 1@."
            (sixty_four /. one)
      | _ -> ())
  | Some _, _ -> ());
  (* catalog swap under live traffic: closed-loop clients keep hammering
     while a control connection reloads the catalog mid-run.  Every
     request must come back well-formed — the generation flips between
     two immutable catalogs, never through a torn state — and the
     generation-resets counter must move by exactly one. *)
  let resets_via () =
    let c = Loadgen.Client.connect ~port () in
    let lines = Loadgen.Client.request c "stats --json" in
    Loadgen.Client.close c;
    match lines with
    | [ json ] -> Option.value ~default:0 (int_field json "generation_resets")
    | _ -> 0
  in
  let resets0 = resets_via () in
  let swap_clients = match !opt_clients with Some n -> min n 64 | None -> 64 in
  let control =
    Domain.spawn (fun () ->
        Unix.sleepf (duration_ms /. 2000.0);
        let c = Loadgen.Client.connect ~port () in
        let r = Loadgen.Client.request c ("catalog load " ^ catalog_file) in
        Loadgen.Client.close c;
        match r with
        | l :: _ when String.length l >= 10 && String.sub l 0 10 = "ok catalog"
          ->
            true
        | _ -> false)
  in
  let r = Loadgen.run ~port ~clients:swap_clients ~duration_ms ~request () in
  let swap_ok = Domain.join control in
  let resets = resets_via () - resets0 in
  Format.printf
    "swap under %d clients: resets=%d ok=%d errors=%d closed-early=%d%s@."
    swap_clients resets r.Loadgen.ok r.Loadgen.errors r.Loadgen.closed_early
    (if swap_ok then "" else "  (swap request FAILED)");
  server_swap :=
    Some
      {
        sw_clients = swap_clients;
        sw_resets = resets;
        sw_ok = r.Loadgen.ok;
        sw_errors = r.Loadgen.errors;
        sw_closed_early = r.Loadgen.closed_early;
      }

(* ------------------------------------------------------------------ *)
(* X9: durable store — warm restart vs cold preprocessing, journal     *)
(* replay, and ENOSPC degradation.                                     *)

let bench_temp_dir () =
  let d = Filename.temp_file "vplan_bench_store" "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let store_ok what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "recovery bench: %s: %s" what e)

let recovery () =
  header "X9: durable store — warm restart vs cold preprocessing";
  let n = 1000 in
  (* chain views over a small schema: the last three atoms are redundant
     (they fold into the first three), so cold preprocessing pays
     for real minimization; (a, b, c, d) ranges over 256 combinations,
     so classes hold ~4 equivalent views each and grouping pays for
     real within-bucket equivalence checks *)
  let texts =
    List.init n (fun i ->
        let a = i mod 4
        and b = i / 4 mod 4
        and c = i / 16 mod 4
        and d = i / 64 mod 4 in
        Printf.sprintf
          "w%d(X0, X4) :- e%d(X0, X1), e%d(X1, X2), e%d(X2, X3), e%d(X3, \
           X4), e%d(X0, Y), e%d(X1, W), e%d(X2, Z)."
          i a b c d a b c)
  in
  (* cold boot: parse the catalog file, minimize and canonicalize every
     view, group the equivalence classes *)
  let cat, cold_ms =
    time_ms (fun () ->
        let views =
          List.map (fun t -> store_ok "parse" (Persist.view_of_text t)) texts
        in
        Catalog.create_exn views)
  in
  (* warm boot: open the store and restore the snapshot — no
     recanonicalization, the classes come back keyed *)
  let dir = bench_temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let st, _ = store_ok "open" (Store.open_dir dir) in
  store_ok "save" (Store.save st (Persist.snapshot_of cat));
  Store.close st;
  let warm_views, warm_ms =
    time_ms (fun () ->
        let st, r = store_ok "reopen" (Store.open_dir dir) in
        let snap = Option.get r.Store.r_snapshot in
        let cat, _, _ = store_ok "restore" (Persist.state_of_snapshot snap) in
        Store.close st;
        Catalog.num_views cat)
  in
  (* journal replay: the same 1000 views as individual acked mutations *)
  let dir2 = bench_temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir2) @@ fun () ->
  let st2, _ = store_ok "open journal" (Store.open_dir dir2) in
  List.iter
    (fun t -> store_ok "append" (Store.append st2 (Record.Add_view t)))
    texts;
  let journal_kb = float_of_int (Store.journal_bytes st2) /. 1024. in
  Store.close st2;
  let replay_records, replay_ms =
    time_ms (fun () ->
        let st, r = store_ok "reopen journal" (Store.open_dir dir2) in
        let _, _, applied =
          store_ok "replay" (Persist.replay (None, None) r.Store.r_replayed)
        in
        Store.close st;
        applied)
  in
  (* ENOSPC mid-serving: the mutation is refused, reads keep answering *)
  let dir3 = bench_temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir3) @@ fun () ->
  Failpoint.reset ();
  let st3, _ = store_ok "open degraded" (Store.open_dir dir3) in
  let shared = Protocol.create_shared ~domains:1 ~store:st3 () in
  let sess = Protocol.new_session shared in
  let ask line = (Protocol.handle_lines shared sess [ line ]).Protocol.text in
  ignore
    (ask "catalog add v4(M, D, C, S) :- car(M, D), loc(D, C), part(S, M, C).");
  Failpoint.arm "store.journal.append" (Failpoint.Io_error "ENOSPC");
  let enospc_readonly =
    String.starts_with ~prefix:"err readonly"
      (ask "catalog add v5(X) :- loc(X, X).")
    && Store.mode st3 = Store.Readonly
  in
  let reads_degraded =
    String.starts_with ~prefix:"ok 1"
      (ask
         "rewrite q1(S, C) :- car(M, anderson), loc(anderson, C), part(S, M, \
          C).")
  in
  Failpoint.reset ();
  Store.close st3;
  let speedup = if warm_ms > 0. then cold_ms /. warm_ms else infinity in
  Format.printf "%8s %12s %12s %10s %10s %12s %10s@." "views" "cold-ms"
    "warm-ms" "speedup" "replay" "replay-ms" "journal";
  Format.printf "%8d %12.1f %12.1f %9.1fx %10d %12.1f %8.0fkB@." warm_views
    cold_ms warm_ms speedup replay_records replay_ms journal_kb;
  Format.printf "enospc: mutation refused readonly=%b, reads still answer=%b@."
    enospc_readonly reads_degraded;
  recovery_metrics :=
    Some
      {
        rc_views = warm_views;
        rc_cold_ms = cold_ms;
        rc_warm_ms = warm_ms;
        rc_speedup = speedup;
        rc_replay_records = replay_records;
        rc_replay_ms = replay_ms;
        rc_journal_kb = journal_kb;
        rc_enospc_readonly = enospc_readonly;
        rc_reads_degraded = reads_degraded;
      }

let experiments settings =
  [
    ("table2", fun () -> table2 ());
    ( "fig6a",
      fun () ->
        time_figure ~name:"fig6a" ~shape:Generator.Star ~nondistinguished:0 ~settings
          ~title:"Figure 6(a): star queries, all variables distinguished" );
    ( "fig6b",
      fun () ->
        time_figure ~name:"fig6b" ~shape:Generator.Star ~nondistinguished:1 ~settings
          ~title:"Figure 6(b): star queries, 1 variable nondistinguished" );
    ( "fig7",
      fun () ->
        classes_figure ~shape:Generator.Star ~settings
          ~title:"Figure 7: equivalence classes, star queries" );
    ( "fig8a",
      fun () ->
        time_figure ~name:"fig8a" ~shape:Generator.Chain ~nondistinguished:0 ~settings
          ~title:"Figure 8(a): chain queries, all variables distinguished" );
    ( "fig8b",
      fun () ->
        time_figure ~name:"fig8b" ~shape:Generator.Chain ~nondistinguished:1 ~settings
          ~title:"Figure 8(b): chain queries, 1 variable nondistinguished" );
    ( "fig9",
      fun () ->
        classes_figure ~shape:Generator.Chain ~settings
          ~title:"Figure 9: equivalence classes, chain queries" );
    ("example42", fun () -> example42 ());
    ("example61", fun () -> example61 ());
    ("ablation", fun () -> ablation ~settings);
    ("joinorder", fun () -> joinorder ());
    ("shapes", fun () -> shapes ~settings);
    ("endpoints", fun () -> endpoints ());
    ("openworld", fun () -> openworld ());
    ("estimate", fun () -> estimate ());
    ("joins", fun () -> joins ~settings ());
    ("acyclic", fun () -> acyclic_bench ~settings ());
    ("serve", fun () -> serve ~settings);
    ("loadgen", fun () -> loadgen_bench ~settings);
    ("optimize", fun () -> optimize ~settings);
    ("observe", fun () -> observe ~settings);
    ("recovery", fun () -> recovery ());
    ("micro", fun () -> micro ());
  ]

let usage () =
  prerr_endline
    "usage: main.exe [EXPERIMENT...] [--full | --quick | --mode quick|full] [--views N]\n\
    \                [--domains N] [--out FILE.json]\n\
    \                [--timeout MS] [--max-steps N] [--max-covers N]\n\
    \                [--clients N] [--port P] [--retries N] [--backoff-ms MS]\n\
    \                                            (loadgen)";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let is_full = ref false in
  let max_views = ref None in
  let out_file = ref None in
  let rec parse wanted = function
    | [] -> List.rev wanted
    | "--full" :: rest ->
        is_full := true;
        parse wanted rest
    | "--quick" :: rest ->
        is_full := false;
        parse wanted rest
    | "--mode" :: m :: rest -> (
        match m with
        | "quick" ->
            is_full := false;
            parse wanted rest
        | "full" ->
            is_full := true;
            parse wanted rest
        | _ -> usage ())
    | "--domains" :: n :: rest -> (
        match int_of_string_opt n with
        | Some d when d >= 1 ->
            opt_domains := d;
            parse wanted rest
        | _ -> usage ())
    | "--views" :: n :: rest -> (
        match int_of_string_opt n with
        | Some v when v >= 1 ->
            max_views := Some v;
            parse wanted rest
        | _ -> usage ())
    | "--timeout" :: ms :: rest -> (
        match float_of_string_opt ms with
        | Some v when v > 0. ->
            opt_timeout := Some v;
            parse wanted rest
        | _ -> usage ())
    | "--max-steps" :: n :: rest -> (
        match int_of_string_opt n with
        | Some v when v >= 1 ->
            opt_max_steps := Some v;
            parse wanted rest
        | _ -> usage ())
    | "--max-covers" :: n :: rest -> (
        match int_of_string_opt n with
        | Some v when v >= 1 ->
            opt_max_covers := Some v;
            parse wanted rest
        | _ -> usage ())
    | "--out" :: file :: rest ->
        out_file := Some file;
        parse wanted rest
    | "--clients" :: n :: rest -> (
        match int_of_string_opt n with
        | Some v when v >= 1 ->
            opt_clients := Some v;
            parse wanted rest
        | _ -> usage ())
    | "--port" :: p :: rest -> (
        match int_of_string_opt p with
        | Some v when v >= 1 && v < 65536 ->
            opt_port := Some v;
            parse wanted rest
        | _ -> usage ())
    | "--workers" :: n :: rest -> (
        match int_of_string_opt n with
        | Some v when v >= 1 ->
            server_workers := v;
            parse wanted rest
        | _ -> usage ())
    | "--queue" :: n :: rest -> (
        match int_of_string_opt n with
        | Some v when v >= 1 ->
            server_queue := v;
            parse wanted rest
        | _ -> usage ())
    | "--retries" :: n :: rest -> (
        match int_of_string_opt n with
        | Some v when v >= 0 ->
            opt_retries := v;
            parse wanted rest
        | _ -> usage ())
    | "--backoff-ms" :: ms :: rest -> (
        match float_of_string_opt ms with
        | Some v when v > 0.0 ->
            opt_backoff_ms := v;
            parse wanted rest
        | _ -> usage ())
    | a :: _ when String.length a >= 2 && String.sub a 0 2 = "--" -> usage ()
    | a :: rest -> parse (a :: wanted) rest
  in
  let wanted = parse [] args in
  let settings =
    let s = if !is_full then full else quick in
    match !max_views with
    | None -> s
    | Some cap -> { s with view_counts = List.filter (fun n -> n <= cap) s.view_counts }
  in
  let all = experiments settings in
  let to_run =
    match wanted with
    | [] | [ "all" ] -> List.map fst all
    | names -> names
  in
  let mode = if !is_full then "paper-scale" else "quick" in
  (* open the output file before the experiments run, so a bad path fails
     in seconds rather than after the full benchmark *)
  let out =
    match !out_file with
    | None -> None
    | Some path -> (
        match open_out path with
        | oc -> Some (path, oc)
        | exception Sys_error msg ->
            Printf.eprintf "cannot open --out file: %s\n" msg;
            exit 1)
  in
  Format.printf "vplan benchmark harness (%s settings)@." mode;
  List.iter
    (fun name ->
      match List.assoc_opt name all with
      | Some run -> run ()
      | None -> Format.printf "unknown experiment %S (known: %s)@." name
                  (String.concat ", " (List.map fst all)))
    to_run;
  (match out with
  | None -> ()
  | Some (path, oc) ->
      write_json ~mode oc;
      close_out oc;
      Format.printf "@.wrote %d timing rows to %s@." (List.length !json_rows) path);
  if !any_truncated then exit 3
