(* The line protocol, shared by every front end.  Handlers render into
   a formatter over the caller's buffer: the TCP server passes its
   worker's retained buffer and frames it onto the socket in place, the
   stdio loop prints its own, and [handle_lines] is the one-string projection.
   Rewrite answers ([rewrite], [batch]) are the exception to the
   formatter: their rewriting lines are spliced from the cache entry's
   reply template ({!Service.rewrite_reply}) straight into the reply
   buffer, so a hit builds no [Query.t] and makes no [Format] call. *)

open Vplan_cq
module Budget = Vplan_core.Budget
module Vplan_error = Vplan_core.Vplan_error
module Database = Vplan_relational.Database
module Subplan = Vplan_cost.Subplan
module Metrics = Vplan_obs.Metrics
module Trace = Vplan_obs.Trace
module Profile = Vplan_obs.Profile
module Recorder = Vplan_obs.Recorder
module Hypergraph = Vplan_hypergraph.Hypergraph
module Store = Vplan_store.Store
module Record = Vplan_store.Record
module Stats = Vplan_stats.Stats

type shared = {
  mutable service : Service.t option;
  (* serializes catalog/base read-modify-write cycles (add/remove build
     on the current catalog); Service itself is domain-safe *)
  slock : Mutex.t;
  store : Store.t option;
  (* recovery facts frozen at boot, reported by [health] *)
  boot_replayed : int;
  boot_truncated : int;
  domains : int;
  cache_capacity : int;
  d_timeout_ms : float option;
  d_max_steps : int option;
  d_max_covers : int option;
  d_slow_ms : float option;
  d_cost_mode : Service.cost_mode;
  next_trace : int Atomic.t;
}

type session = {
  shared : shared;
  mutable timeout_ms : float option;
  mutable max_steps : int option;
  mutable max_covers : int option;
  mutable slow_ms : float option;
  mutable cost_mode : Service.cost_mode;
}

type reply = { text : string; close : bool }

let create_shared ?(cache_capacity = 512) ?(domains = 1) ?timeout_ms ?max_steps
    ?max_covers ?slow_ms ?(cost_mode = Service.Exact) ?store () =
  {
    service = None;
    slock = Mutex.create ();
    store;
    boot_replayed = 0;
    boot_truncated = 0;
    domains;
    cache_capacity;
    d_timeout_ms = timeout_ms;
    d_max_steps = max_steps;
    d_max_covers = max_covers;
    d_slow_ms = slow_ms;
    d_cost_mode = cost_mode;
    next_trace = Atomic.make 0;
  }

let new_session shared =
  {
    shared;
    timeout_ms = shared.d_timeout_ms;
    max_steps = shared.d_max_steps;
    max_covers = shared.d_max_covers;
    slow_ms = shared.d_slow_ms;
    cost_mode = shared.d_cost_mode;
  }

let service shared = shared.service
let store shared = shared.store

(* journal-before-ack: every mutation is appended (and fsynced) before
   it becomes visible; [Ok ()] with no store means ephemeral mode *)
let persist shared op =
  match shared.store with None -> Ok () | Some st -> Store.append st op

let mutating shared f =
  Mutex.lock shared.slock;
  Fun.protect ~finally:(fun () -> Mutex.unlock shared.slock) f

let set_or_create_service shared cat =
  match shared.service with
  | Some s -> Service.set_catalog s cat
  | None ->
      shared.service <-
        Some (Service.create ~cache_capacity:shared.cache_capacity cat)

let install_catalog shared cat = mutating shared (fun () -> set_or_create_service shared cat)

type boot = { views : int; replayed : int; truncated_bytes : int }

let boot ?cache_capacity ?domains ?timeout_ms ?max_steps ?max_covers ?slow_ms ?cost_mode
    ~data_dir () =
  match Store.open_dir data_dir with
  | Error e -> Error ("store: " ^ e)
  | Ok (st, r) -> (
      match Persist.recover r with
      | Error e ->
          Store.close st;
          Error ("recovery: " ^ e)
      | Ok (cat, base, stats) ->
          let shared =
            {
              (create_shared ?cache_capacity ?domains ?timeout_ms ?max_steps ?max_covers
                 ?slow_ms ?cost_mode ~store:st ())
              with
              boot_replayed = List.length r.Store.r_replayed;
              boot_truncated = r.Store.r_truncated_bytes;
            }
          in
          (match cat with
          | None -> ()
          | Some cat -> (
              install_catalog shared cat;
              match (shared.service, base) with
              | Some s, Some db -> Service.set_base ?stats s db
              | _ -> ()));
          Ok
            ( shared,
              {
                views = (match cat with Some c -> Catalog.num_views c | None -> 0);
                replayed = shared.boot_replayed;
                truncated_bytes = r.Store.r_truncated_bytes;
              } ))

let next_trace_id shared = Atomic.fetch_and_add shared.next_trace 1 + 1

(* Requests are traced on their worker domain only while a slow-query
   threshold is armed: a request that crosses it retains its whole span
   tree in the flight recorder instead of one log line. *)
let traced_if_armed (sess : session) f =
  if sess.slow_ms <> None then Trace.run f else (f (), [])

let mode_string = function
  | Service.Exact -> "exact"
  | Service.Estimated -> "estimated"

(* The epilogue of every answered rewrite, plan and analyze request:
   draw its trace id, log it if slow, and append its flight-recorder
   record, which keeps the span tree only when the request was slow.
   The slow log goes through the shared sink as one whole line:
   per-domain [Format.eprintf] tears mid-line when worker domains log
   concurrently. *)
let record_request (sess : session) ~kind ~ms ~spans ~classification
    ?(source = "") ?qerror ?answers ?truncated ?profile (query : Query.t) =
  let trace = next_trace_id sess.shared in
  let slow = match sess.slow_ms with Some threshold -> ms >= threshold | None -> false in
  if slow then
    Recorder.log_line
      (Printf.sprintf "slow trace=%d ms=%.3f source=%s" trace ms
         (if source = "" then kind else source));
  Recorder.append ~kind ~trace ~latency_ms:ms ~source
    ~mode:(mode_string sess.cost_mode) ~classification ?qerror ?answers
    ?truncated ~slow ~detail:(Atom.to_string query.Query.head)
    ~spans:(if slow then spans else [])
    ?profile ();
  trace

(* The reply format of a plan choice, written once for [plan], [explain
   analyze] and the command-line tool's [explain --analyze]. *)
let pp_plan_cost ppf = function
  | Service.Cells c -> Format.fprintf ppf "cost=%d" c
  | Service.Cells_est c -> Format.fprintf ppf "mode=estimated cost_est=%.1f" c

let pp_analyze_summary ppf (o : Service.analyze_outcome) =
  Format.fprintf ppf "%a candidates=%d answers=%d qerror=%s" pp_plan_cost o.Service.an_cost
    o.Service.an_candidates o.Service.an_answers
    (if Float.is_nan o.Service.an_qerror then "-"
     else Printf.sprintf "%.2f" o.Service.an_qerror)

let pp_plan_lines ?profile ppf rewriting order =
  Format.fprintf ppf "%a@." Query.pp rewriting;
  Format.fprintf ppf "order: %a@."
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Atom.pp)
    order;
  match profile with
  | Some spans -> Format.fprintf ppf "profile:@.%a" Profile.pp_tree spans
  | None -> ()

let pp_classification ppf (query : Query.t) =
  match Hypergraph.classify query.Query.body with
  | Hypergraph.Cyclic -> Format.fprintf ppf "classification: cyclic@."
  | Hypergraph.Acyclic t ->
      Format.fprintf ppf "classification: acyclic@.";
      if t.Hypergraph.root >= 0 then
        Format.fprintf ppf "join tree:@.%a@." Hypergraph.pp_tree t

let err ppf fmt =
  Format.kasprintf (fun s -> Format.fprintf ppf "err %s@." s) fmt

let help ppf =
  Format.fprintf ppf
    "commands: catalog load FILE | catalog add <rule>. | catalog remove NAME\n\
    \          rewrite <rule>. | batch N | data load FILE | plan <rule>.\n\
    \          explain [analyze] <rule>. | stats [--json] | metrics\n\
    \          recorder dump [--json] | recorder grep SUBSTRING\n\
    \          trace dump ID | save | health\n\
    \          set timeout MS | set max-steps N | set max-covers N\n\
    \          set slow-ms MS | set cost-mode exact|estimated | set off\n\
    \          help | quit@."

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A fresh budget per request: one adversarial query cannot stall a
   worker forever, and deadlines start when the request is picked up. *)
let fresh_budget (sess : session) =
  Budget.of_limits ?deadline_ms:sess.timeout_ms ?max_steps:sess.max_steps ()

let with_service shared ppf f =
  match shared.service with
  | None -> err ppf "no catalog loaded (use: catalog load FILE)"
  | Some s -> f s

let pp_catalog_line ppf cat =
  Format.fprintf ppf "ok catalog generation=%d views=%d classes=%d@."
    (Catalog.generation cat) (Catalog.num_views cat) (Catalog.num_classes cat)

(* Replacing the whole catalog is compaction, not a journal record: the
   new state does not build on the old one, so it goes straight into a
   snapshot (which also truncates the journal). *)
let snapshot_now shared =
  match (shared.store, shared.service) with
  | None, _ | _, None -> Ok ()
  | Some st, Some s ->
      Store.save st
        (Persist.snapshot_of ?base:(Service.base s)
           ?stats:(Service.base_stats s) (Service.catalog s))

let cmd_catalog_load shared ppf path =
  match Parser.parse_program (read_file path) with
  | Error e -> err ppf "%s" (Vplan_error.parse_to_string e)
  | exception Sys_error e -> err ppf "%s" e
  | Ok views -> (
      match Catalog.create views with
      | Error e -> err ppf "%s" e
      | Ok cat -> (
          let outcome =
            mutating shared (fun () ->
                set_or_create_service shared cat;
                snapshot_now shared)
          in
          match outcome with
          | Error e -> err ppf "readonly: %s" e
          | Ok () -> pp_catalog_line ppf cat))

let cmd_catalog_add shared ppf rest =
  match Parser.parse_rule rest with
  | Error e -> err ppf "%s" (Vplan_error.parse_to_string e)
  | Ok v -> (
      (* the read-modify-write is serialized so concurrent adds both
         land, whichever order they arrive in; an add on an empty
         server bootstraps a one-view catalog (replay does the same) *)
      let outcome =
        mutating shared (fun () ->
            let next =
              match shared.service with
              | Some s -> Catalog.add_views (Service.catalog s) [ v ]
              | None -> Catalog.create [ v ]
            in
            match next with
            | Error e -> Error (`Invalid e)
            | Ok cat -> (
                match
                  persist shared (Record.Add_view (Persist.render_view v))
                with
                | Error e -> Error (`Readonly e)
                | Ok () ->
                    set_or_create_service shared cat;
                    Ok cat))
      in
      match outcome with
      | Error (`Invalid e) -> err ppf "%s" e
      | Error (`Readonly e) -> err ppf "readonly: %s" e
      | Ok cat -> pp_catalog_line ppf cat)

let cmd_catalog_remove shared ppf name =
  with_service shared ppf (fun s ->
      let outcome =
        mutating shared (fun () ->
            match Catalog.remove_views (Service.catalog s) [ name ] with
            | Error e -> Error (`Invalid e)
            | Ok cat -> (
                match persist shared (Record.Remove_view name) with
                | Error e -> Error (`Readonly e)
                | Ok () ->
                    Service.set_catalog s cat;
                    Ok cat))
      in
      match outcome with
      | Error (`Invalid e) -> err ppf "%s" e
      | Error (`Readonly e) -> err ppf "readonly: %s" e
      | Ok cat -> pp_catalog_line ppf cat)

let split_command line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
      ( String.sub line 0 i,
        String.trim (String.sub line (i + 1) (String.length line - i - 1)) )

let cmd_catalog shared ppf rest =
  let sub, arg = split_command rest in
  match sub with
  | "load" when arg <> "" -> cmd_catalog_load shared ppf arg
  | "add" when arg <> "" -> cmd_catalog_add shared ppf arg
  | "remove" when arg <> "" -> cmd_catalog_remove shared ppf arg
  | _ ->
      err ppf "usage: catalog load FILE | catalog add <rule>. | catalog remove NAME"

(* The rewritings go straight from the reply template into the reply
   buffer: the formatter is flushed first, so the splice lands after
   everything printed so far. *)
let print_reply ?(spans = []) (sess : session) buf ppf query (r : Service.reply) =
  let source =
    match r.Service.reply_source with
    | Service.Hit -> "hit"
    | Service.Miss -> "miss"
    | Service.Bypass -> "bypass"
  in
  let truncated =
    match r.Service.reply_completeness with
    | Vplan_rewrite.Corecover.Complete -> ""
    | Vplan_rewrite.Corecover.Truncated reason -> Vplan_error.to_string reason
  in
  let trace =
    record_request sess ~kind:"rewrite" ~ms:r.Service.reply_ms ~spans
      ~classification:r.Service.reply_classification ~source
      ~answers:r.Service.reply_count ~truncated query
  in
  Format.fprintf ppf "ok %d %s trace=%d@." r.Service.reply_count source trace;
  Format.pp_print_flush ppf ();
  Reply_template.render buf r.Service.reply_lines r.Service.reply_names;
  if truncated <> "" then Format.fprintf ppf "truncated: %s@." truncated

let cmd_rewrite (sess : session) buf ppf rest =
  let shared = sess.shared in
  with_service shared ppf (fun s ->
      match Parser.parse_rule rest with
      | Error e -> err ppf "%s" (Vplan_error.parse_to_string e)
      | Ok query ->
          let reply, spans =
            traced_if_armed sess (fun () ->
                Service.rewrite_reply ?budget:(fresh_budget sess)
                  ?max_covers:sess.max_covers ~domains:shared.domains s query)
          in
          print_reply ~spans sess buf ppf query reply)

let cmd_batch (sess : session) buf ppf ~read_line rest =
  let shared = sess.shared in
  match int_of_string_opt rest with
  | None | Some 0 -> err ppf "usage: batch N (then N rewrite-request lines)"
  | Some n when n < 0 -> err ppf "usage: batch N (then N rewrite-request lines)"
  | Some n ->
      with_service shared ppf (fun s ->
          let lines = List.init n (fun _ -> read_line ()) in
          let parsed =
            List.filter_map
              (fun line ->
                Option.map (fun l -> Parser.parse_rule (String.trim l)) line)
              lines
          in
          let queries =
            List.filter_map (function Ok q -> Some q | Error _ -> None) parsed
          in
          if List.length parsed < n then err ppf "batch: end of input"
          else if List.length queries < List.length parsed then
            err ppf "batch: every line must be a rule"
          else
            (* the whole batch fans out over the domain pool; answers
               come back in request order *)
            List.iter2
              (print_reply sess buf ppf)
              queries
              (Service.rewrite_batch
                 ~make_budget:(fun () -> fresh_budget sess)
                 ?max_covers:sess.max_covers ~domains:shared.domains s queries))

let cmd_data (sess : session) ppf rest =
  let shared = sess.shared in
  let sub, arg = split_command rest in
  match sub with
  | "load" when arg <> "" ->
      with_service shared ppf (fun s ->
          match Parser.parse_facts (read_file arg) with
          | Error e -> err ppf "%s" (Vplan_error.parse_to_string e)
          | exception Sys_error e -> err ppf "%s" e
          | Ok facts -> (
              let outcome =
                mutating shared (fun () ->
                    match persist shared (Record.Load_data facts) with
                    | Error e -> Error e
                    | Ok () ->
                        Service.set_base s (Database.of_facts facts);
                        Ok ())
              in
              match outcome with
              | Error e -> err ppf "readonly: %s" e
              | Ok () ->
                  let relations, rows =
                    match Service.base_stats s with
                    | None -> (0, 0)
                    | Some st ->
                        (Vplan_stats.Stats.num_relations st,
                         Vplan_stats.Stats.total_rows st)
                  in
                  Format.fprintf ppf "ok data facts=%d relations=%d rows=%d@."
                    (List.length facts) relations rows))
  | _ -> err ppf "usage: data load FILE"

let cmd_plan (sess : session) ppf rest =
  let shared = sess.shared in
  with_service shared ppf (fun s ->
      match Parser.parse_rule rest with
      | Error e -> err ppf "%s" (Vplan_error.parse_to_string e)
      | Ok query -> (
          let outcome, spans =
            traced_if_armed sess (fun () ->
                Service.plan ?budget:(fresh_budget sess)
                  ?max_covers:sess.max_covers ~domains:shared.domains
                  ~cost_mode:sess.cost_mode s query)
          in
          match outcome with
          | None -> Format.fprintf ppf "ok plan none trace=%d@." (next_trace_id shared)
          | Some o ->
              let trace =
                record_request sess ~kind:"plan" ~ms:o.Service.plan_ms ~spans
                  ~classification:o.Service.plan_classification query
              in
              Format.fprintf ppf "ok plan %a candidates=%d trace=%d@." pp_plan_cost
                o.Service.plan_cost o.Service.plan_candidates trace;
              pp_plan_lines ppf o.Service.plan_rewriting o.Service.plan_order))

let accuracy_json accs =
  "{"
  ^ String.concat ","
      (List.map
         (fun (name, (a : Service.rel_accuracy)) ->
           Printf.sprintf "\"%s\":{\"n\":%d,\"mean_q\":%.2f,\"max_q\":%.2f}"
             (Trace.json_escape name) a.Service.acc_samples a.Service.acc_mean_q
             a.Service.acc_max_q)
         accs)
  ^ "}"

let cmd_stats shared ppf rest =
  with_service shared ppf (fun s ->
      let st = Service.stats s in
      let l = st.Service.latency in
      match rest with
      | "--json" ->
          (* one line, so a scraper reads exactly one response line *)
          Format.fprintf ppf
            "{\"generation\":%d,\"views\":%d,\"classes\":%d,\"requests\":%d,\
             \"hits\":%d,\"misses\":%d,\"bypasses\":%d,\"evictions\":%d,\
             \"cache_size\":%d,\"cache_capacity\":%d,\"truncated\":%d,\
             \"plan_requests\":%d,\"analyze_requests\":%d,\
             \"generation_resets\":%d,\
             \"data_relations\":%d,\"data_rows\":%d,\
             \"acyclic_queries\":%d,\"containment_fastpath\":%d,\
             \"containment_fallback\":%d,\
             \"estimate_accuracy\":%s,\
             \"latency\":{\"count\":%d,\"mean_ms\":%.3f,\"p50_ms\":%.3f,\
             \"p95_ms\":%.3f,\"max_ms\":%.3f}}@."
            st.Service.generation st.Service.num_views st.Service.num_view_classes
            st.Service.requests st.Service.hits st.Service.misses
            st.Service.bypasses st.Service.evictions st.Service.cache_size
            st.Service.cache_capacity st.Service.truncated
            st.Service.plan_requests st.Service.analyze_requests
            st.Service.generation_resets
            st.Service.data_relations st.Service.data_rows
            (Metrics.value (Metrics.counter "vplan_acyclic_queries_total"))
            (Metrics.value (Metrics.counter "vplan_containment_fastpath_total"))
            (Metrics.value (Metrics.counter "vplan_containment_fallback_total"))
            (accuracy_json st.Service.estimate_accuracy)
            l.Service.count l.Service.mean_ms l.Service.p50_ms l.Service.p95_ms
            l.Service.max_ms
      | "" ->
          Format.fprintf ppf "generation=%d views=%d classes=%d@."
            st.Service.generation st.Service.num_views st.Service.num_view_classes;
          Format.fprintf ppf "requests=%d hits=%d misses=%d bypasses=%d@."
            st.Service.requests st.Service.hits st.Service.misses
            st.Service.bypasses;
          Format.fprintf ppf "cache size=%d capacity=%d evictions=%d@."
            st.Service.cache_size st.Service.cache_capacity st.Service.evictions;
          Format.fprintf ppf
            "truncated=%d plan-requests=%d analyze-requests=%d \
             generation-resets=%d@."
            st.Service.truncated st.Service.plan_requests
            st.Service.analyze_requests st.Service.generation_resets;
          if Service.base s <> None then
            Format.fprintf ppf "data relations=%d rows=%d@."
              st.Service.data_relations st.Service.data_rows;
          Format.fprintf ppf
            "acyclic queries=%d containment-fastpath=%d \
             containment-fallback=%d@."
            (Metrics.value (Metrics.counter "vplan_acyclic_queries_total"))
            (Metrics.value (Metrics.counter "vplan_containment_fastpath_total"))
            (Metrics.value (Metrics.counter "vplan_containment_fallback_total"));
          List.iter
            (fun (name, (a : Service.rel_accuracy)) ->
              Format.fprintf ppf "estimates %s n=%d mean_q=%.2f max_q=%.2f@."
                name a.Service.acc_samples a.Service.acc_mean_q
                a.Service.acc_max_q)
            st.Service.estimate_accuracy;
          Format.fprintf ppf
            "latency count=%d mean=%.3fms p50=%.3fms p95=%.3fms max=%.3fms@."
            l.Service.count l.Service.mean_ms l.Service.p50_ms l.Service.p95_ms
            l.Service.max_ms
      | _ -> err ppf "usage: stats [--json]")

let cmd_metrics shared ppf =
  with_service shared ppf (fun s ->
      let st = Service.stats s in
      (* gauges reflect current state; set them at scrape time *)
      Metrics.set (Metrics.gauge "vplan_cache_size") st.Service.cache_size;
      Metrics.set (Metrics.gauge "vplan_catalog_generation") st.Service.generation;
      Metrics.set (Metrics.gauge "vplan_catalog_views") st.Service.num_views;
      (match Service.subplan_counters s with
      | None -> ()
      | Some c ->
          Metrics.set (Metrics.gauge "vplan_subplan_memo_size") c.Subplan.size;
          Metrics.set (Metrics.gauge "vplan_subplan_memo_hits") c.Subplan.hits;
          Metrics.set (Metrics.gauge "vplan_subplan_memo_misses") c.Subplan.misses;
          Metrics.set (Metrics.gauge "vplan_subplan_memo_resets") c.Subplan.resets);
      Metrics.dump ppf;
      Format.pp_print_flush ppf ())

(* `explain analyze`: plan, then execute the chosen plan with the
   operator profile attached.  The profile is retained in the flight
   recorder whether or not the request was slow — analyze is explicitly
   diagnostic, so `trace dump <id>` always has something to show. *)
let cmd_analyze (sess : session) ppf rest =
  let shared = sess.shared in
  with_service shared ppf (fun s ->
      match Parser.parse_rule rest with
      | Error e -> err ppf "%s" (Vplan_error.parse_to_string e)
      | Ok query -> (
          let outcome, spans =
            traced_if_armed sess (fun () ->
                Service.analyze ?budget:(fresh_budget sess)
                  ?max_covers:sess.max_covers ~domains:shared.domains
                  ~cost_mode:sess.cost_mode s query)
          in
          match outcome with
          | None ->
              Format.fprintf ppf "ok analyze none trace=%d@."
                (next_trace_id shared)
          | Some o ->
              let trace =
                record_request sess ~kind:"analyze" ~ms:o.Service.an_ms ~spans
                  ~classification:o.Service.an_classification
                  ~qerror:o.Service.an_qerror ~answers:o.Service.an_answers
                  ~profile:o.Service.an_profile query
              in
              Format.fprintf ppf "ok analyze %a class=%s trace=%d@." pp_analyze_summary o
                o.Service.an_classification trace;
              pp_plan_lines ~profile:o.Service.an_profile ppf o.Service.an_rewriting
                o.Service.an_order))

let cmd_explain (sess : session) ppf rest =
  let shared = sess.shared in
  with_service shared ppf (fun s ->
      match Parser.parse_rule rest with
      | Error e -> err ppf "%s" (Vplan_error.parse_to_string e)
      | Ok query ->
          let clock = Budget.create () in
          (* plan exercises the full pipeline (all CoreCover phases plus
             plan selection); without a base database, trace the rewrite
             path instead *)
          let label, spans =
            match Service.base s with
            | Some _ ->
                let outcome, spans =
                  Trace.run (fun () ->
                      Service.plan ?budget:(fresh_budget sess)
                        ?max_covers:sess.max_covers ~domains:shared.domains
                        ~cost_mode:sess.cost_mode s query)
                in
                ((match outcome with Some _ -> "plan" | None -> "plan none"), spans)
            | None ->
                let reply, spans =
                  Trace.run (fun () ->
                      Service.rewrite_reply ?budget:(fresh_budget sess)
                        ?max_covers:sess.max_covers ~domains:shared.domains s
                        query)
                in
                (Printf.sprintf "rewrite %d" reply.Service.reply_count, spans)
          in
          let ms = Budget.elapsed_ms clock in
          Format.fprintf ppf "ok explain %s request=%.3fms traced=%.3fms spans=%d@."
            label ms
            (Trace.top_level_total spans)
            (List.length spans);
          pp_classification ppf query;
          Format.fprintf ppf "%a" Trace.pp_tree spans)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec matches i j = j = m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec from i = i + m <= n && (matches i 0 || from (i + 1)) in
  from 0

(* the recorder is process-global, so these answer even before a
   catalog loads — a recorder dump must work on a wedged server *)
let cmd_recorder ppf rest =
  let sub, arg = split_command rest in
  match (sub, arg) with
  | "dump", "" ->
      let records = Recorder.dump () in
      Format.fprintf ppf "ok recorder records=%d capacity=%d@."
        (List.length records) Recorder.capacity;
      List.iter (fun r -> Format.fprintf ppf "%s@." (Recorder.render r)) records
  | "dump", "--json" ->
      let records = Recorder.dump () in
      Format.fprintf ppf "[%s]@."
        (String.concat "," (List.map Recorder.to_json records))
  | "grep", needle when needle <> "" ->
      let hits =
        List.filter
          (fun r -> contains_sub (Recorder.render r) needle)
          (Recorder.dump ())
      in
      Format.fprintf ppf "ok recorder matched=%d@." (List.length hits);
      List.iter (fun r -> Format.fprintf ppf "%s@." (Recorder.render r)) hits
  | _ -> err ppf "usage: recorder dump [--json] | recorder grep SUBSTRING"

let cmd_trace ppf rest =
  let sub, arg = split_command rest in
  match (sub, int_of_string_opt arg) with
  | "dump", Some id -> (
      match Recorder.find_trace id with
      | None -> err ppf "no recorded request with trace=%d" id
      | Some r ->
          if r.Recorder.spans = [] && r.Recorder.profile = [] then
            err ppf
              "trace %d retained no spans or profile (spans are kept for \
               slow requests — set slow-ms — and profiles for explain \
               analyze)"
              id
          else
            Format.fprintf ppf "%s@."
              (Trace.chrome_json (r.Recorder.spans @ r.Recorder.profile)))
  | _ -> err ppf "usage: trace dump ID"

let cmd_save shared ppf =
  match shared.store with
  | None -> err ppf "no data dir (start the server with --data-dir DIR)"
  | Some st ->
      with_service shared ppf (fun _ ->
          match mutating shared (fun () -> snapshot_now shared) with
          | Error e -> err ppf "readonly: %s" e
          | Ok () ->
              Format.fprintf ppf "ok saved seq=%d journal_records=%d@."
                (Store.last_seq st) (Store.journal_records st))

(* One line, always answerable — even with no catalog and no store —
   so probes can watch a server come up and degrade. *)
let cmd_health shared ppf =
  let generation, views =
    match shared.service with
    | None -> (0, 0)
    | Some s ->
        let cat = Service.catalog s in
        (Catalog.generation cat, Catalog.num_views cat)
  in
  (* data columns appear only once a base database is resident, so the
     line stays byte-stable for servers that never load data *)
  let data =
    match Option.bind shared.service Service.base_stats with
    | Some st ->
        Printf.sprintf " data_relations=%d data_rows=%d" (Stats.num_relations st)
          (Stats.total_rows st)
    | None -> ""
  in
  match shared.store with
  | None ->
      Format.fprintf ppf "ok health generation=%d views=%d store=ephemeral%s@."
        generation views data
  | Some st ->
      let mode =
        match Store.mode st with
        | Store.Durable -> "durable"
        | Store.Readonly -> "readonly"
      in
      let age =
        match Store.snapshot_age_s st with
        | None -> "none"
        | Some a -> Printf.sprintf "%.0fs" a
      in
      Format.fprintf ppf
        "ok health generation=%d views=%d store=%s snapshot_age=%s \
         replayed=%d truncated_bytes=%d journal_records=%d journal_bytes=%d%s@."
        generation views mode age shared.boot_replayed shared.boot_truncated
        (Store.journal_records st) (Store.journal_bytes st) data

let cmd_set (sess : session) ppf rest =
  match String.split_on_char ' ' rest |> List.filter (fun s -> s <> "") with
  | [ "off" ] ->
      sess.timeout_ms <- None;
      sess.max_steps <- None;
      sess.max_covers <- None;
      sess.slow_ms <- None;
      Format.fprintf ppf "ok budget off@."
  | [ "slow-ms"; ms ] -> (
      match float_of_string_opt ms with
      | Some v when v >= 0. ->
          sess.slow_ms <- Some v;
          Format.fprintf ppf "ok slow-ms=%gms@." v
      | _ -> err ppf "usage: set slow-ms MS")
  | [ "timeout"; ms ] -> (
      match float_of_string_opt ms with
      | Some v when v > 0. ->
          sess.timeout_ms <- Some v;
          Format.fprintf ppf "ok timeout=%gms@." v
      | _ -> err ppf "usage: set timeout MS")
  | [ "max-steps"; n ] -> (
      match int_of_string_opt n with
      | Some v when v > 0 ->
          sess.max_steps <- Some v;
          Format.fprintf ppf "ok max-steps=%d@." v
      | _ -> err ppf "usage: set max-steps N")
  | [ "max-covers"; n ] -> (
      match int_of_string_opt n with
      | Some v when v > 0 ->
          sess.max_covers <- Some v;
          Format.fprintf ppf "ok max-covers=%d@." v
      | _ -> err ppf "usage: set max-covers N")
  | [ "cost-mode"; m ] -> (
      match m with
      | "exact" ->
          sess.cost_mode <- Service.Exact;
          Format.fprintf ppf "ok cost-mode=exact@."
      | "estimated" ->
          sess.cost_mode <- Service.Estimated;
          Format.fprintf ppf "ok cost-mode=estimated@."
      | _ -> err ppf "usage: set cost-mode exact|estimated")
  | _ ->
      err ppf
        "usage: set timeout MS | set max-steps N | set max-covers N | set \
         slow-ms MS | set cost-mode exact|estimated | set off"

let extra_lines line =
  let cmd, rest = split_command (String.trim line) in
  if cmd <> "batch" then 0
  else match int_of_string_opt rest with Some n when n > 0 -> n | _ -> 0

(* [true] = keep the connection; [false] = close after this reply. *)
let dispatch (sess : session) buf ppf ~read_line line =
  let shared = sess.shared in
  let line = String.trim line in
  if line = "" then true
  else
    let cmd, rest = split_command line in
    match cmd with
    | "quit" | "exit" -> false
    | "help" -> help ppf; true
    | "catalog" -> cmd_catalog shared ppf rest; true
    | "rewrite" -> cmd_rewrite sess buf ppf rest; true
    | "batch" -> cmd_batch sess buf ppf ~read_line rest; true
    | "data" -> cmd_data sess ppf rest; true
    | "plan" -> cmd_plan sess ppf rest; true
    | "explain" ->
        let sub, arg = split_command rest in
        if sub = "analyze" && arg <> "" then cmd_analyze sess ppf arg
        else cmd_explain sess ppf rest;
        true
    | "recorder" -> cmd_recorder ppf rest; true
    | "trace" -> cmd_trace ppf rest; true
    | "stats" -> cmd_stats shared ppf rest; true
    | "metrics" -> cmd_metrics shared ppf; true
    | "save" -> cmd_save shared ppf; true
    | "health" -> cmd_health shared ppf; true
    | "set" -> cmd_set sess ppf rest; true
    | other -> err ppf "unknown command %S (try: help)" other; true

let handle_into shared sess buf ~read_line line =
  assert (sess.shared == shared);
  let ppf = Format.formatter_of_buffer buf in
  (* fault containment: a request that raises yields one "err" line and
     the connection (and every other connection) lives on *)
  let keep =
    try dispatch sess buf ppf ~read_line line with
    | Vplan_error.Error e ->
        err ppf "%s" (Vplan_error.to_string e);
        true
    | Invalid_argument msg | Failure msg | Sys_error msg ->
        err ppf "%s" msg;
        true
  in
  Format.pp_print_flush ppf ();
  not keep

let handle_lines_into shared sess buf lines =
  match lines with
  | [] -> false
  | first :: rest ->
      let remaining = ref rest in
      let read_line () =
        match !remaining with
        | [] -> None
        | l :: tl ->
            remaining := tl;
            Some l
      in
      handle_into shared sess buf ~read_line first

let handle_lines shared sess lines =
  let buf = Buffer.create 256 in
  let close = handle_lines_into shared sess buf lines in
  { text = Buffer.contents buf; close }
