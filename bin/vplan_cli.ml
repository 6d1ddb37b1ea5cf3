(* vplan command-line interface.

   Input files are Datalog programs: the first rule is the query, every
   other rule a view definition — except, for [classify], rules whose head
   predicate matches the query's, which are treated as candidate
   rewritings.  Data files contain ground facts. *)

open Cmdliner

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Exit codes: 0 complete, 1 runtime error, 2 parse/usage error, 3 result
   truncated or cut off by a budget — whether reported as an anytime
   result or raised from a search that cannot return partial answers
   (plan selection).  Runtime failures print one diagnostic line instead
   of dying with a backtrace. *)
let or_die f =
  try f () with
  | Vplan.Vplan_error.Error e ->
      Format.eprintf "error: %s@." (Vplan.Vplan_error.to_string e);
      exit
        (match e with
        | Vplan.Vplan_error.Parse _ -> 2
        | e when Vplan.Vplan_error.is_resource e -> 3
        | _ -> 1)
  | Invalid_argument msg | Failure msg | Sys_error msg ->
      Format.eprintf "error: %s@." msg;
      exit 1

let parse_program_file path =
  match Vplan.Parser.parse_program (read_file path) with
  | Error e ->
      Format.eprintf "%s:%s@." path (Vplan.Vplan_error.parse_to_string e);
      exit 2
  | Ok [] ->
      Format.eprintf "%s: empty program@." path;
      exit 2
  | Ok (query :: rest) -> (query, rest)

(* Shared --timeout/--max-steps/--max-covers options for budgeted
   commands. *)
let timeout_arg =
  Arg.(value & opt (some float) None
       & info [ "timeout" ] ~docv:"MS"
           ~doc:"Wall-clock deadline in milliseconds; on expiry the result \
                 produced so far is printed and the exit code is 3.")

let max_steps_arg =
  Arg.(value & opt (some int) None
       & info [ "max-steps" ] ~docv:"N"
           ~doc:"Deterministic step budget over all search loops; on \
                 exhaustion the exit code is 3.")

let max_covers_arg =
  Arg.(value & opt (some int) None
       & info [ "max-covers" ] ~docv:"N"
           ~doc:"Stop after enumerating $(docv) covers; when the cap fires \
                 the exit code is 3.")

let budget_of ~timeout ~max_steps =
  if timeout = None && max_steps = None then None
  else Some (Vplan.Budget.create ?deadline_ms:timeout ?max_steps ())

let split_views_and_candidates (query : Vplan.Query.t) rules =
  let qpred = query.head.Vplan.Atom.pred in
  List.partition (fun (r : Vplan.Query.t) -> r.head.Vplan.Atom.pred <> qpred) rules

(* ------------------------------------------------------------------ *)
(* rewrite                                                             *)

let rewrite_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let all_minimal =
    Arg.(value & flag & info [ "all-minimal" ] ~doc:"Run CoreCover* (all minimal rewritings for cost model M2) instead of GMRs only.")
  in
  let no_group =
    Arg.(value & flag & info [ "no-group" ] ~doc:"Disable equivalence-class grouping of views.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print view tuples and tuple-cores.") in
  let domains =
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N"
           ~doc:"Fan the per-view evaluation across $(docv) domains (same result for any value).")
  in
  let run file all_minimal no_group domains verbose timeout max_steps max_covers =
   or_die @@ fun () ->
    let query, rest = parse_program_file file in
    let views, _ = split_views_and_candidates query rest in
    let budget = budget_of ~timeout ~max_steps in
    let result =
      if all_minimal then
        Vplan.Corecover.all_minimal ?budget ?max_results:max_covers
          ~group_views:(not no_group) ~domains ~query ~views ()
      else
        Vplan.Corecover.gmrs ?budget ?max_covers ~group_views:(not no_group)
          ~domains ~query ~views ()
    in
    Format.printf "query (minimized): %a@." Vplan.Query.pp result.minimized_query;
    Format.printf "views: %d in %d equivalence classes@." result.stats.num_views
      result.stats.num_view_classes;
    Format.printf "view tuples: %d (%d representatives)@." result.stats.num_view_tuples
      result.stats.num_representative_tuples;
    if verbose then begin
      Format.printf "tuple-cores:@.";
      List.iter
        (fun (tv, core) ->
          Format.printf "  %a covers %a@." Vplan.View_tuple.pp tv Vplan.Tuple_core.pp core)
        result.cores
    end;
    if result.filters <> [] then begin
      Format.printf "filter candidates:";
      List.iter (fun tv -> Format.printf " %a" Vplan.View_tuple.pp tv) result.filters;
      Format.printf "@."
    end;
    (match (result.rewritings, result.completeness) with
    | [], Vplan.Corecover.Complete -> Format.printf "no equivalent rewriting exists@."
    | [], Vplan.Corecover.Truncated _ ->
        Format.printf "no rewriting found before the cutoff@."
    | rs, _ ->
        Format.printf "%s (%d):@."
          (if all_minimal then "minimal rewritings" else "globally-minimal rewritings")
          (List.length rs);
        List.iter (fun p -> Format.printf "  %a@." Vplan.Query.pp p) rs);
    match result.completeness with
    | Vplan.Corecover.Complete -> ()
    | Vplan.Corecover.Truncated reason ->
        Format.eprintf "warning: result truncated: %s@."
          (Vplan.Vplan_error.to_string reason);
        exit 3
  in
  Cmd.v
    (Cmd.info "rewrite" ~doc:"Generate rewritings of a query using views (CoreCover).")
    Term.(const run $ file $ all_minimal $ no_group $ domains $ verbose
          $ timeout_arg $ max_steps_arg $ max_covers_arg)

(* ------------------------------------------------------------------ *)
(* plan                                                                *)

let database_of_file path =
  match Vplan.Parser.parse_facts (read_file path) with
  | Error e ->
      Format.eprintf "%s:%s@." path (Vplan.Vplan_error.parse_to_string e);
      exit 2
  | Ok facts -> Vplan.Database.of_facts facts

let plan_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let data =
    Arg.(required & opt (some file) None & info [ "data" ] ~docv:"DATA" ~doc:"Ground facts for the base relations.")
  in
  let cost =
    Arg.(value
         & opt (enum [ ("m1", `M1); ("m2", `M2); ("m3", `M3); ("m3-supplementary", `M3s) ]) `M2
         & info [ "cost" ] ~docv:"MODEL" ~doc:"Cost model: m1, m2, m3 (renaming heuristic) or m3-supplementary.")
  in
  let explain_flag =
    Arg.(value & flag & info [ "explain" ] ~doc:"Print the plan step by step with the sizes incurred.")
  in
  let domains =
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N"
           ~doc:"Score candidate rewritings across $(docv) domains (same result for any value).")
  in
  let cost_mode =
    Arg.(value
         & opt (enum [ ("exact", `Exact); ("estimated", `Estimated) ]) `Exact
         & info [ "cost-mode" ] ~docv:"MODE"
             ~doc:"With --cost m2: cost candidates exactly (materialized \
                   view sizes) or from base-table statistics only.")
  in
  let run file data cost cost_mode explain domains timeout max_steps =
   or_die @@ fun () ->
    let query, rest = parse_program_file file in
    let views, _ = split_views_and_candidates query rest in
    let base = database_of_file data in
    let budget = budget_of ~timeout ~max_steps in
    let ctx = Vplan.Optimizer.create ~views base in
    (* plan under [model]; [print] shows the chosen plan's details *)
    let report model print =
      let r, choice = Vplan.Optimizer.plan ?budget ~domains model ctx query in
      (match choice with
      | None -> Format.printf "no rewriting@."
      | Some (c : _ Vplan.Select.choice) ->
          Format.printf "rewriting: %a@." Vplan.Query.pp c.rewriting;
          print c);
      r.Vplan.Corecover.completeness
    in
    let print_order (c : _ Vplan.Select.choice) =
      Format.printf "join order:";
      List.iter (fun a -> Format.printf " %a" Vplan.Atom.pp a) c.plan;
      Format.printf "@."
    in
    let explain_m2 (c : _ Vplan.Select.choice) =
      if explain then
        Vplan.Explain.m2 Format.std_formatter (Vplan.Optimizer.view_database ctx) c.plan
    in
    let completeness =
      match (cost, cost_mode) with
      | (`M1 | `M3 | `M3s), `Estimated ->
          Format.eprintf "error: --cost-mode estimated supports --cost m2 only@.";
          exit 2
      | `M1, `Exact ->
          report Vplan.Optimizer.M1 (fun c -> Format.printf "cost (subgoals): %.0f@." c.cost)
      | `M2, `Estimated ->
          (* statistics-only selection: join selectivities derived from the
             base-table statistics, views never materialized for costing;
             the realized cost of the chosen order is printed for
             comparison *)
          report (Vplan.Optimizer.M2 Vplan.Optimizer.Estimated) (fun c ->
              print_order c;
              Format.printf "cost (M2, estimated): %.1f@." c.cost;
              Format.printf "cost (M2, realized): %.0f@."
                (Vplan.M2.cost (Vplan.M2.exact (Vplan.Optimizer.view_database ctx)) c.plan);
              explain_m2 c)
      | `M2, `Exact ->
          report (Vplan.Optimizer.M2 Vplan.Optimizer.Exact) (fun c ->
              print_order c;
              Format.printf "cost (M2): %.0f@." c.cost;
              explain_m2 c)
      | ((`M3 | `M3s) as strategy), `Exact ->
          let strategy = if strategy = `M3 then `Heuristic else `Supplementary in
          report (Vplan.Optimizer.M3 strategy) (fun c ->
              Format.printf "plan: %a@." Vplan.M3.pp_plan c.plan;
              Format.printf "cost (M3): %.0f@." c.cost;
              if explain then
                Vplan.Explain.m3 Format.std_formatter (Vplan.Optimizer.view_database ctx) c.plan)
    in
    Format.printf "query answer size: %d@."
      (Vplan.Relation.cardinality (Vplan.Eval.answers base query));
    match completeness with
    | Vplan.Corecover.Complete -> ()
    | Vplan.Corecover.Truncated reason ->
        (* the cut-short candidate set may have missed the optimum *)
        Format.eprintf "warning: result truncated: %s@." (Vplan.Vplan_error.to_string reason);
        exit 3
  in
  Cmd.v
    (Cmd.info "plan" ~doc:"Pick a cost-optimal rewriting and physical plan over a concrete database.")
    Term.(const run $ file $ data $ cost $ cost_mode $ explain_flag $ domains
          $ timeout_arg $ max_steps_arg)

(* ------------------------------------------------------------------ *)
(* explain                                                             *)

let explain_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let data =
    Arg.(value & opt (some file) None
         & info [ "data" ] ~docv:"DATA"
             ~doc:"Ground facts for the base relations; when given, the \
                   trace also covers view materialization and plan \
                   selection.")
  in
  let domains =
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N"
           ~doc:"Fan the per-view evaluation across $(docv) domains.")
  in
  let analyze_flag =
    Arg.(value & flag
         & info [ "analyze" ]
             ~doc:"Execute the chosen plan with an operator profile attached \
                   and print the operator tree with estimated vs actual rows \
                   and per-query q-error (requires --data).")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write the request's spans (and, with --analyze, its \
                   operator profile) as a Chrome trace.json loadable in \
                   Perfetto / chrome://tracing.")
  in
  let run file data analyze trace_out domains timeout max_steps max_covers =
   or_die @@ fun () ->
    let query, rest = parse_program_file file in
    let views, _ = split_views_and_candidates query rest in
    let budget = budget_of ~timeout ~max_steps in
    let clock = Vplan.Budget.create () in
    let label, spans, analyzed =
      match (analyze, data) with
      | true, None -> failwith "--analyze needs --data FILE"
      | true, Some data -> (
          (* the same backend the server's `explain analyze` uses *)
          let base = database_of_file data in
          let cat =
            match Vplan.Catalog.create views with
            | Ok c -> c
            | Error e -> failwith e
          in
          let svc = Vplan.Service.create cat in
          Vplan.Service.set_base svc base;
          let outcome, spans =
            Vplan.Trace.run (fun () ->
                Vplan.Service.analyze ?budget ?max_covers ~domains svc query)
          in
          match outcome with
          | None -> ("analyze none", spans, None)
          | Some o ->
              let cost =
                match o.Vplan.Service.an_cost with
                | Vplan.Service.Cells c -> Printf.sprintf "cost=%d" c
                | Vplan.Service.Cells_est c -> Printf.sprintf "cost_est=%.1f" c
              in
              let q =
                if Float.is_nan o.Vplan.Service.an_qerror then "-"
                else Printf.sprintf "%.2f" o.Vplan.Service.an_qerror
              in
              ( Printf.sprintf "analyze %s candidates=%d answers=%d qerror=%s"
                  cost o.Vplan.Service.an_candidates o.Vplan.Service.an_answers
                  q,
                spans,
                Some o ))
      | false, None ->
          let result, spans =
            Vplan.Trace.run (fun () ->
                Vplan.Corecover.gmrs ?budget ?max_covers ~domains ~query ~views ())
          in
          ( Printf.sprintf "rewritings=%d" (List.length result.rewritings),
            spans,
            None )
      | false, Some data ->
          (* the same pipeline [plan --cost m2] runs, with each stage under
             the tracer: CoreCover*, materialize, branch-and-bound *)
          let ctx = Vplan.Optimizer.create ~views (database_of_file data) in
          let (_, choice), spans =
            Vplan.Trace.run (fun () ->
                Vplan.Optimizer.plan ?budget ?max_covers ~domains
                  (Vplan.Optimizer.M2 Vplan.Optimizer.Exact) ctx query)
          in
          ( (match choice with
            | Some c -> Printf.sprintf "plan cost=%.0f" c.Vplan.Select.cost
            | None -> "plan none"),
            spans,
            None )
    in
    let ms = Vplan.Budget.elapsed_ms clock in
    Format.printf "explain %s@." label;
    (match Vplan.Hypergraph.classify query.Vplan.Query.body with
    | Vplan.Hypergraph.Cyclic -> Format.printf "classification: cyclic@."
    | Vplan.Hypergraph.Acyclic t ->
        Format.printf "classification: acyclic@.";
        if t.Vplan.Hypergraph.root >= 0 then
          Format.printf "join tree:@.%a@." Vplan.Hypergraph.pp_tree t);
    Format.printf "request %.3f ms, traced %.3f ms in %d spans@." ms
      (Vplan.Trace.top_level_total spans)
      (List.length spans);
    Format.printf "%a" Vplan.Trace.pp_tree spans;
    (match analyzed with
    | None -> ()
    | Some o ->
        Format.printf "%a@." Vplan.Query.pp o.Vplan.Service.an_rewriting;
        Format.printf "order: %a@."
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
             Vplan.Atom.pp)
          o.Vplan.Service.an_order;
        Format.printf "profile:@.%a" Vplan.Profile.pp_tree
          o.Vplan.Service.an_profile);
    match trace_out with
    | None -> ()
    | Some path ->
        let extra =
          match analyzed with
          | Some o -> Vplan.Profile.chrome_events o.Vplan.Service.an_profile
          | None -> []
        in
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            output_string oc (Vplan.Trace.chrome_json ~extra spans);
            output_char oc '\n');
        Format.printf "trace written to %s@." path
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Trace one rewrite (or, with --data, plan-selection) request and \
             print its span tree with per-phase wall time.  With --analyze, \
             also execute the chosen plan and print its operator tree with \
             estimated vs actual rows.")
    Term.(const run $ file $ data $ analyze_flag $ trace_out $ domains
          $ timeout_arg $ max_steps_arg $ max_covers_arg)

(* ------------------------------------------------------------------ *)
(* classify                                                            *)

let classify_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run file =
   or_die @@ fun () ->
    let query, rest = parse_program_file file in
    let views, candidates = split_views_and_candidates query rest in
    if candidates = [] then Format.printf "no candidate rewritings in the file@."
    else begin
      let lmrs =
        List.filter (Vplan.Classify.is_lmr ~views ~query) candidates
      in
      List.iter
        (fun p ->
          let is_r = Vplan.Classify.is_rewriting ~views ~query p in
          Format.printf "%a@." Vplan.Query.pp p;
          Format.printf "  equivalent rewriting: %b@." is_r;
          if is_r then begin
            Format.printf "  minimal as query:     %b@." (Vplan.Classify.is_minimal_query p);
            Format.printf "  locally minimal:      %b@."
              (Vplan.Classify.is_lmr ~views ~query p);
            Format.printf "  containment minimal:  %b@."
              (Vplan.Classify.is_cmr_among ~lmrs p);
            Format.printf "  globally minimal:     %b@."
              (Vplan.Classify.is_gmr_among
                 ~candidates:(Vplan.Corecover.gmrs ~query ~views ()).rewritings p)
          end)
        candidates
    end
  in
  Cmd.v
    (Cmd.info "classify"
       ~doc:"Classify candidate rewritings (rules sharing the query's head predicate) as minimal / LMR / CMR / GMR.")
    Term.(const run $ file)

(* ------------------------------------------------------------------ *)
(* certain                                                             *)

let certain_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let data =
    Arg.(required & opt (some file) None & info [ "data" ] ~docv:"DATA" ~doc:"Ground facts for the base relations.")
  in
  let algorithm =
    Arg.(value
         & opt (enum [ ("minicon", `Minicon); ("inverse-rules", `Inverse) ]) `Minicon
         & info [ "algorithm" ] ~docv:"ALGO" ~doc:"minicon (maximally-contained union) or inverse-rules.")
  in
  let run file data algorithm =
   or_die @@ fun () ->
    let query, rest = parse_program_file file in
    let views, _ = split_views_and_candidates query rest in
    let base = database_of_file data in
    let view_db = Vplan.Materialize.views base views in
    (match algorithm with
    | `Minicon -> (
        match Vplan.Minicon.maximally_contained ~query ~views () with
        | None -> Format.printf "no contained rewriting@."
        | Some union ->
            Format.printf "maximally-contained union:@.%a@." Vplan.Ucq.pp union;
            Format.printf "certain answers: %a@." Vplan.Relation.pp
              (Vplan.Eval.answers_ucq view_db union))
    | `Inverse ->
        Format.printf "certain answers: %a@." Vplan.Relation.pp
          (Vplan.Inverse_rules.certain_answers ~views ~query view_db));
    Format.printf "true answer over the given base: %a@." Vplan.Relation.pp
      (Vplan.Eval.answers base query)
  in
  Cmd.v
    (Cmd.info "certain"
       ~doc:"Compute the certain answers under the open-world assumption (maximally-contained rewriting).")
    Term.(const run $ file $ data $ algorithm)

(* ------------------------------------------------------------------ *)
(* datalog                                                             *)

let datalog_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"PROGRAM") in
  let data =
    Arg.(required & opt (some file) None & info [ "data" ] ~docv:"DATA" ~doc:"Ground EDB facts.")
  in
  let query_arg =
    Arg.(required & opt (some string) None & info [ "query" ] ~docv:"ATOM" ~doc:"Query atom, e.g. 'reach(sfo, X)'.")
  in
  let magic = Arg.(value & flag & info [ "magic" ] ~doc:"Use the magic-sets transformation.") in
  let run file data query_str magic =
   or_die @@ fun () ->
    let program =
      match Vplan.Program.parse (read_file file) with
      | Ok p -> p
      | Error msg ->
          Format.eprintf "%s: %s@." file msg;
          exit 2
    in
    let base = database_of_file data in
    let query =
      match Vplan.Parser.parse_atom query_str with
      | Ok e -> e
      | Error e ->
          Format.eprintf "--query: %s@." (Vplan.Vplan_error.parse_to_string e);
          exit 2
    in
    let answers =
      if magic then Vplan.Magic.answers program base ~query
      else Vplan.Recursive_views.answers_direct ~program ~query base
    in
    Format.printf "%a@." Vplan.Relation.pp answers
  in
  Cmd.v
    (Cmd.info "datalog"
       ~doc:"Evaluate a (possibly recursive) Datalog program bottom-up, optionally with magic sets.")
    Term.(const run $ file $ data $ query_arg $ magic)

(* ------------------------------------------------------------------ *)
(* generate                                                            *)

let generate_cmd =
  let shape =
    Arg.(value
         & opt (enum [ ("star", Vplan.Generator.Star); ("chain", Vplan.Generator.Chain);
                       ("cycle", Vplan.Generator.Cycle); ("clique", Vplan.Generator.Clique);
                       ("path", Vplan.Generator.Path);
                       ("random", Vplan.Generator.Random_shape) ])
             Vplan.Generator.Star
         & info [ "shape" ] ~docv:"SHAPE"
             ~doc:"star, chain, cycle, clique, path or random.")
  in
  let views = Arg.(value & opt int 20 & info [ "views" ] ~docv:"N") in
  let subgoals = Arg.(value & opt int 8 & info [ "subgoals" ] ~docv:"K") in
  let nondist = Arg.(value & opt int 0 & info [ "nondistinguished" ] ~docv:"D") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED") in
  let run shape views subgoals nondist seed =
   or_die @@ fun () ->
    let config =
      {
        Vplan.Generator.default with
        shape;
        num_views = views;
        query_subgoals = subgoals;
        num_relations = subgoals;
        nondistinguished_per_view = nondist;
        seed;
      }
    in
    let inst = Vplan.Generator.generate_with_rewriting config in
    Format.printf "%% generated %s workload (seed %d)@."
      (match shape with
      | Vplan.Generator.Star -> "star"
      | Vplan.Generator.Chain -> "chain"
      | Vplan.Generator.Cycle -> "cycle"
      | Vplan.Generator.Clique -> "clique"
      | Vplan.Generator.Path -> "path"
      | Vplan.Generator.Random_shape -> "random")
      seed;
    Format.printf "%a.@." Vplan.Query.pp inst.query;
    List.iter (fun v -> Format.printf "%a.@." Vplan.Query.pp v) inst.views
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a star/chain/random workload as a Datalog program.")
    Term.(const run $ shape $ views $ subgoals $ nondist $ seed)

let () =
  let info =
    Cmd.info "vplan" ~version:"1.0.0"
      ~doc:"Generating efficient plans for queries using views (SIGMOD 2001 reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ rewrite_cmd; plan_cmd; explain_cmd; classify_cmd; certain_cmd;
            datalog_cmd; generate_cmd ]))
