(* The traced run: one domain, in process, no sockets.  It calls each
   layer's public functions directly on the workload's own inputs,
   times every call, counts the minor-heap words it allocates, and
   records a span around it (the library's own phase spans nest inside).

   The request ledger replays the workload's first requests against
   three identically prepared serving states, in lockstep:
   - whole: each request through [Protocol.handle_lines], untraced;
   - traced: the same, inside [Trace.run] — the tracing overhead;
   - parts: each request decomposed into the calls the protocol makes
     (parse, the service — or catalog and store — call, render), each
     timed on its own; its reply must match the protocol's.
   The share of whole-request time the parts do not account for (the
   median per-request gap, over the mean request) is the unattributed
   fraction; it must stay at or below 5%.  Nested probes
   (CoreCover phases inside the call, the statistics scan inside exact
   selection) are children and are not summed. *)

open Vplan
module I = Inputs

let now_ms () = Unix.gettimeofday () *. 1000.

type acc = (string, float list ref) Hashtbl.t

let add (acc : acc) name v =
  match Hashtbl.find_opt acc name with
  | Some r -> r := v :: !r
  | None -> Hashtbl.add acc name (ref [ v ])

let timed f =
  let w0 = Gc.minor_words () in
  let t0 = now_ms () in
  let r = f () in
  let ms = now_ms () -. t0 in
  (r, ms, (Gc.minor_words () -. w0) /. 1000.)

let probe name f = Trace.with_span name (fun () -> timed f)

let repeat acc name n f =
  let last = ref None in
  for _ = 1 to n do
    let r, ms, _ = probe name f in
    add acc (name ^ "_ms") ms;
    last := Some r
  done;
  Option.get !last

let ok_exn what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* -- layer probes --------------------------------------------------- *)

let probe_copy (w : I.t) =
  let v = List.hd w.views in
  Query.make_exn (Atom.make "vprobe" v.Query.head.Atom.args) v.Query.body

let catalog_and_store acc (w : I.t) ~store_dir =
  let cat = ok_exn "catalog" (repeat acc "catalog.create" 3 (fun () -> Catalog.create w.views)) in
  let copy = probe_copy w in
  for _ = 1 to 5 do
    let added, ms, _ = probe "catalog.add" (fun () -> Catalog.add_views cat [ copy ]) in
    add acc "catalog.add_ms" ms;
    let _, ms, _ =
      probe "catalog.remove" (fun () ->
          Catalog.remove_views (ok_exn "add" added) [ View.name copy ])
    in
    add acc "catalog.remove_ms" ms
  done;
  let st, _ = ok_exn "store" (Store.open_dir store_dir) in
  Fun.protect ~finally:(fun () -> Store.close st) (fun () ->
      for _ = 1 to 20 do
        let r, ms, _ =
          probe "store.append" (fun () ->
              Store.append st (Record.Add_view (Persist.render_view copy)))
        in
        ok_exn "append" r;
        add acc "store.append_ms" ms
      done);
  cat

type data = { vdb : Database.t; stats : Stats.t }

let data_layers acc (w : I.t) =
  let stats = repeat acc "stats.collect" 3 (fun () -> Stats.collect w.base) in
  let vdb = repeat acc "views.materialize" 3 (fun () -> Materialize.views w.base w.views) in
  add acc "views.materialized_rows" (float_of_int (Database.total_size vdb));
  ignore (repeat acc "cost.rank" 3 (fun () -> Estimate.analyze vdb));
  ignore
    (repeat acc "cost.estimate_ctx" 3 (fun () ->
         Estimate.view_stats (Estimate.of_stats stats) w.views));
  ignore (repeat acc "exec.intern" 3 (fun () -> Interned.of_database vdb));
  { vdb; stats }

let rewrite_layer acc (w : I.t) cat =
  List.iter
    (fun query ->
      let view_classes = Catalog.view_classes cat and views = Catalog.views cat in
      let r, ms, kw =
        probe "rewrite.corecover" (fun () ->
            if w.all_minimal then Corecover.all_minimal ~view_classes ~query ~views ()
            else Corecover.gmrs ~view_classes ~query ~views ())
      in
      add acc "rewrite.corecover_ms" ms;
      add acc "rewrite.alloc_kw_per_req" kw;
      add acc "rewrite.view_tuples" (float_of_int r.Corecover.stats.Corecover.num_view_tuples);
      add acc "rewrite.tuple_classes" (float_of_int (List.length r.Corecover.tuple_classes));
      add acc "rewrite.covers" (float_of_int (List.length r.Corecover.rewritings)))
    w.probe_queries

(* Plan selection and execution on the workload's first distinct
   queries, CoreCover* capped at [max_candidates] (the star workloads'
   larger queries have thousands of irredundant covers). *)
let max_candidates = 64

let cost_and_exec acc (w : I.t) cat data =
  let memo = Subplan.create () in
  let est = Estimate.view_stats (Estimate.of_stats data.stats) w.views in
  let interned = Interned.of_database data.vdb in
  let considered = Metrics.counter "vplan_select_candidates_total" in
  let pruned = Metrics.counter "vplan_select_pruned_total" in
  let n_considered = ref 0 and n_pruned = ref 0 in
  let m0 = Subplan.counters memo in
  List.iter
    (fun query ->
      let r =
        Corecover.all_minimal ~max_results:max_candidates
          ~view_classes:(Catalog.view_classes cat) ~query ~views:(Catalog.views cat) ()
      in
      let cands = r.Corecover.rewritings in
      add acc "cost.candidates" (float_of_int (List.length cands));
      let c0 = Metrics.value considered and p0 = Metrics.value pruned in
      let choice, ms, _ =
        probe "cost.select_exact" (fun () ->
            Select.best_m2 ~memo ~filters:r.Corecover.filters data.vdb cands)
      in
      n_considered := !n_considered + Metrics.value considered - c0;
      n_pruned := !n_pruned + Metrics.value pruned - p0;
      add acc "cost.select_exact_ms" ms;
      let _, ms, _ = probe "cost.select_est" (fun () -> Select.best_m2_estimated est cands) in
      add acc "cost.select_est_ms" ms;
      Option.iter
        (fun (c : Select.m2_choice) ->
          let ordered = Query.make_exn c.Select.m2_rewriting.Query.head c.Select.m2_order in
          let answers, ms, _ = probe "exec.answers" (fun () -> Exec.answers interned ordered) in
          add acc "exec.answers_ms" ms;
          add acc "exec.rows_out" (float_of_int (Relation.cardinality answers)))
        choice)
    (I.take 8 w.probe_queries);
  let m1 = Subplan.counters memo in
  let hits = m1.Subplan.hits - m0.Subplan.hits and misses = m1.Subplan.misses - m0.Subplan.misses in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  add acc "cost.memo_hit_ratio" (ratio hits (hits + misses));
  add acc "cost.pruned_ratio" (ratio !n_pruned !n_considered)

(* -- the request ledger --------------------------------------------- *)

type state = {
  shared : Protocol.shared;
  sessions : Protocol.session array;  (** one per client connection *)
  store : Store.t option;
}

let handle st sess line = Protocol.handle_lines st.shared sess [ line ]

(* Fresh in-process serving state, set up exactly as the server is. *)
let prepare (w : I.t) ~(files : Window.files) ~store_dir =
  let store = if w.durable then Some (fst (ok_exn "store" (Store.open_dir store_dir))) else None in
  let shared = Protocol.create_shared ?store () in
  let sessions = Array.init I.clients_per_workload (fun _ -> Protocol.new_session shared) in
  let st = { shared; sessions; store } in
  let ctl = Protocol.new_session shared in
  List.iter
    (fun line ->
      let reply = handle st ctl line in
      if not (Child.starts_with "ok" reply.Protocol.text) then
        failwith (line ^ ": " ^ reply.Protocol.text))
    [ "catalog load " ^ files.Window.catalog; "data load " ^ files.Window.data ];
  List.iter
    (function I.Control l | I.Timed { line = l; _ } -> ignore (handle st ctl l))
    w.warmup;
  st

let close st = Option.iter Store.close st.store

(* The first [w.replay] timed requests, alternating clients the way two
   closed loops interleave; control commands stay with their client. *)
let replay_list (w : I.t) =
  let gens = w.clients () in
  let rec go k c acc =
    if k = 0 then List.rev acc
    else
      match gens.(c) () with
      | I.Control _ as r -> go k c ((c, r) :: acc)
      | I.Timed _ as r -> go (k - 1) ((c + 1) mod Array.length gens) ((c, r) :: acc)
  in
  go w.replay 0 []

(* Renders that mirror the protocol's replies, through the same public
   printers and with the same flight-recorder append. *)
let next_trace = ref 0

let reply f =
  incr next_trace;
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf !next_trace;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let classification (q : Query.t) =
  match Hypergraph.classify q.Query.body with
  | Hypergraph.Acyclic _ -> "acyclic"
  | Hypergraph.Cyclic -> "cyclic"

let pp_order ppf order =
  Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Atom.pp ppf order

let render_rewrite (q : Query.t) (o : Service.outcome) =
  reply (fun ppf trace ->
      let source =
        match o.Service.source with
        | Service.Hit -> "hit"
        | Service.Miss -> "miss"
        | Service.Bypass -> "bypass"
      in
      let n = List.length o.Service.rewritings in
      Format.fprintf ppf "ok %d %s trace=%d@." n source trace;
      Recorder.append ~kind:"rewrite" ~trace ~latency_ms:o.Service.ms ~source ~mode:"exact"
        ~classification:(classification q) ~answers:n ~truncated:"" ~slow:false
        ~detail:(Atom.to_string q.Query.head) ~spans:[] ();
      List.iter (fun p -> Format.fprintf ppf "%a@." Query.pp p) o.Service.rewritings)

let render_plan ~mode (q : Query.t) (o : Service.plan_outcome option) =
  reply (fun ppf trace ->
      match o with
      | None -> Format.fprintf ppf "ok plan none trace=%d@." trace
      | Some o ->
          (match o.Service.plan_cost with
          | Service.Cells c ->
              Format.fprintf ppf "ok plan cost=%d candidates=%d trace=%d@." c
                o.Service.plan_candidates trace
          | Service.Cells_est c ->
              Format.fprintf ppf "ok plan mode=estimated cost_est=%.1f candidates=%d trace=%d@." c
                o.Service.plan_candidates trace);
          Recorder.append ~kind:"plan" ~trace ~latency_ms:o.Service.plan_ms ~mode
            ~classification:(classification q) ~slow:false ~detail:(Atom.to_string q.Query.head)
            ~spans:[] ();
          Format.fprintf ppf "%a@." Query.pp o.Service.plan_rewriting;
          Format.fprintf ppf "order: %a@." pp_order o.Service.plan_order)

let render_analyze (q : Query.t) (o : Service.analyze_outcome option) =
  reply (fun ppf trace ->
      match o with
      | None -> Format.fprintf ppf "ok analyze none trace=%d@." trace
      | Some o ->
          let qe =
            if Float.is_nan o.Service.an_qerror then "-"
            else Printf.sprintf "%.2f" o.Service.an_qerror
          in
          (match o.Service.an_cost with
          | Service.Cells c ->
              Format.fprintf ppf
                "ok analyze cost=%d candidates=%d answers=%d qerror=%s class=%s trace=%d@." c
                o.Service.an_candidates o.Service.an_answers qe o.Service.an_classification trace
          | Service.Cells_est c ->
              Format.fprintf ppf
                "ok analyze mode=estimated cost_est=%.1f candidates=%d answers=%d qerror=%s \
                 class=%s trace=%d@."
                c
                o.Service.an_candidates o.Service.an_answers qe o.Service.an_classification trace);
          Recorder.append ~kind:"analyze" ~trace ~latency_ms:o.Service.an_ms ~mode:"exact"
            ~classification:o.Service.an_classification ~qerror:o.Service.an_qerror
            ~answers:o.Service.an_answers ~slow:false ~detail:(Atom.to_string q.Query.head)
            ~spans:[]
            ~profile:o.Service.an_profile ();
          Format.fprintf ppf "%a@." Query.pp o.Service.an_rewriting;
          Format.fprintf ppf "order: %a@." pp_order o.Service.an_order;
          Format.fprintf ppf "profile:@.%a" Profile.pp_tree o.Service.an_profile)

let render_catalog cat =
  reply (fun ppf _ ->
      Format.fprintf ppf "ok catalog generation=%d views=%d classes=%d@." (Catalog.generation cat)
        (Catalog.num_views cat) (Catalog.num_classes cat))

(* The argument of a request line: what follows its one- or two-word
   command. *)
let after_command line =
  let two_words = [ "explain analyze "; "catalog add "; "catalog remove " ] in
  let words = if List.exists (fun p -> Child.starts_with p line) two_words then 2 else 1 in
  let rec drop k i = if k = 0 then i else drop (k - 1) (String.index_from line i ' ' + 1) in
  String.sub line (drop words 0) (String.length line - drop words 0)

(* Request [line] of [kind], decomposed: (parse, call, render) times
   and the rendered reply. *)
let decomposed acc st (kind : I.kind) line =
  let svc = Option.get (Protocol.service st.shared) in
  let parse () =
    let q, ms, _ = probe "protocol.parse" (fun () -> Parser.parse_rule (after_command line)) in
    add acc "protocol.parse_ms" ms;
    (ok_exn "parse" (Result.map_error Vplan_error.parse_to_string q), ms)
  in
  let call name f =
    let r, ms, kw = probe name f in
    add acc "service.call_ms" ms;
    add acc "service.alloc_kw_per_req" kw;
    (r, ms)
  in
  let render f =
    let text, ms, _ = probe "protocol.render" f in
    add acc "protocol.render_ms" ms;
    (text, ms)
  in
  let canonicalize q =
    let _, ms, _ = probe "service.canonicalize" (fun () -> Normalize.canonicalize q) in
    add acc "service.canonicalize_ms" ms
  in
  let query_request service_call render_outcome =
    let q, parse_ms = parse () in
    let o, call_ms = call "service.call" (fun () -> service_call q) in
    canonicalize q;
    let text, render_ms = render (fun () -> render_outcome q o) in
    (parse_ms, call_ms, render_ms, text)
  in
  let mutate (next : Catalog.t -> (Catalog.t, string) result) op =
    let cat, cat_ms, _ =
      probe "catalog.mutate" (fun () -> ok_exn "catalog" (next (Service.catalog svc)))
    in
    let r, store_ms, _ = probe "store.append" (fun () -> Store.append (Option.get st.store) op) in
    ok_exn "append" r;
    let (), call_ms = call "service.set_catalog" (fun () -> Service.set_catalog svc cat) in
    let text, render_ms = render (fun () -> render_catalog cat) in
    (cat_ms +. store_ms +. call_ms, render_ms, text)
  in
  match kind with
  | I.Hot | I.Cold -> query_request (fun q -> Service.rewrite ~domains:1 svc q) render_rewrite
  | I.Plan -> query_request (fun q -> Service.plan ~domains:1 svc q) (render_plan ~mode:"exact")
  | I.Plan_est ->
      query_request
        (fun q -> Service.plan ~domains:1 ~cost_mode:Service.Estimated svc q)
        (render_plan ~mode:"estimated")
  | I.Analyze -> query_request (fun q -> Service.analyze ~domains:1 svc q) render_analyze
  | I.Mutation when Child.starts_with "catalog add " line ->
      let q, parse_ms = parse () in
      let v = View.of_query q in
      let work, render_ms, text =
        mutate (fun c -> Catalog.add_views c [ v ]) (Record.Add_view (Persist.render_view v))
      in
      (parse_ms, work, render_ms, text)
  | I.Mutation ->
      let name = after_command line in
      let work, render_ms, text =
        mutate (fun c -> Catalog.remove_views c [ name ]) (Record.Remove_view name)
      in
      (0., work, render_ms, text)

(* Replies carry trace ids and profile timings; compare them with every
   number masked. *)
let mask s =
  let b = Buffer.create (String.length s) in
  String.iteri
    (fun i c ->
      let numeric c = (c >= '0' && c <= '9') || c = '.' in
      if not (numeric c) then Buffer.add_char b c
      else if i = 0 || not (numeric s.[i - 1]) then Buffer.add_char b '#')
    s;
  Buffer.contents b

(* Library phase spans nested under each direct CoreCover call. *)
let phase_times acc (spans : Trace.span list) =
  let children = Hashtbl.create 1024 in
  List.iter (fun (s : Trace.span) -> Hashtbl.add children s.Trace.parent s) spans;
  let rec total name (s : Trace.span) =
    List.fold_left
      (fun sum (c : Trace.span) ->
        sum +. (if c.Trace.name = name then c.Trace.dur_ms else 0.) +. total name c)
      0.
      (Hashtbl.find_all children s.Trace.id)
  in
  List.iter
    (fun (s : Trace.span) ->
      if s.Trace.name = "rewrite.corecover" then
        List.iter
          (fun phase -> add acc ("rewrite." ^ phase ^ "_ms") (total phase s))
          [ "minimize"; "view_tuples"; "tuple_cores"; "set_cover" ])
    spans

type row = {
  kind : I.kind;
  requests : int;
  handle_ms : float;  (** whole requests, untraced *)
  traced_ms : float;  (** whole requests, each inside [Trace.run] *)
  parse_ms : float;
  call_ms : float;
  render_ms : float;
  gap_ms : float;  (** median of (whole - parse - call - render) per request *)
}

(* The typical request's unexplained time, as a share of the mean
   request.  A median rather than a sum: one major-collection slice of a
   few milliseconds, landing on either side of a sub-millisecond request,
   would otherwise swing the share of a cheap kind by several percent. *)
let unattributed r =
  if r.handle_ms <= 0. then 0. else r.gap_ms *. float_of_int r.requests /. r.handle_ms

type report = {
  layers : (string * float list) list;  (** per-layer samples, by metric *)
  rows : row list;
  mismatches : int;  (** decomposed replies differing from the protocol's *)
  spans : Trace.span list;
}

let max_unattributed = 0.05

type replayed = {
  r_kind : I.kind;
  whole_ms : float;
  whole_text : string;
  traced_ms : float;
  parts : float * float * float * string;  (** parse, call, render, reply *)
}

let sweep (w : I.t) ~files ~dir =
  let acc : acc = Hashtbl.create 64 in
  let origin = now_ms () in
  let spans = ref [] in
  (* each [Trace.run] session has its own clock origin; shift its spans
     onto the sweep's *)
  let traced f =
    let t0 = now_ms () -. origin in
    let r, s = Trace.run f in
    let shift (x : Trace.span) = { x with Trace.start_ms = x.Trace.start_ms +. t0 } in
    spans := List.rev_append (List.map shift s) !spans;
    r
  in
  traced (fun () ->
      let cat = catalog_and_store acc w ~store_dir:(Filename.concat dir "probe-store") in
      let data = data_layers acc w in
      rewrite_layer acc w cat;
      cost_and_exec acc w cat data);
  (* whole, whole traced, decomposed: three identically prepared states,
     replayed in lockstep with the order rotating per request, so drift
     (collector phases, frequency, neighbours) lands on all three *)
  let states =
    Array.init 3 (fun i ->
        prepare w ~files ~store_dir:(Filename.concat dir (Printf.sprintf "ledger-%d" i)))
  in
  (* the order rotates per kind: requests of one kind can recur at a
     fixed stride (churn's mutations do), which would otherwise hand the
     same state the same slot every time — the first of three fsyncs in
     a row is the slow one *)
  let seen = Hashtbl.create 8 in
  let replayed =
    Fun.protect ~finally:(fun () -> Array.iter close states) @@ fun () ->
    List.filter_map
      (fun (c, r) ->
        match r with
        | I.Control l ->
            Array.iter (fun st -> ignore (handle st st.sessions.(c) l)) states;
            None
        | I.Timed { kind; line; _ } ->
            let i = Option.value ~default:0 (Hashtbl.find_opt seen kind) in
            Hashtbl.replace seen kind (i + 1);
            let whole = ref (0., "") and traced_ms = ref 0. and parts = ref (0., 0., 0., "") in
            let run = function
              | 0 ->
                  let t0 = now_ms () in
                  let reply = handle states.(0) states.(0).sessions.(c) line in
                  whole := (now_ms () -. t0, reply.Protocol.text)
              | 1 ->
                  let t0 = now_ms () in
                  let st = states.(1) in
                  ignore (Trace.run (fun () -> handle st st.sessions.(c) line));
                  traced_ms := now_ms () -. t0
              | _ -> parts := traced (fun () -> decomposed acc states.(2) kind line)
            in
            List.iter (fun k -> run ((i + k) mod 3)) [ 0; 1; 2 ];
            Some
              {
                r_kind = kind;
                whole_ms = fst !whole;
                whole_text = snd !whole;
                traced_ms = !traced_ms;
                parts = !parts;
              })
      (replay_list w)
  in
  let spans = List.rev !spans in
  phase_times acc spans;
  List.iter (fun x -> add acc "protocol.handle_ms" x.whole_ms) replayed;
  let mismatches =
    List.length
      (List.filter
         (fun x -> let _, _, _, text = x.parts in mask x.whole_text <> mask text)
         replayed)
  in
  let rows =
    List.filter_map
      (fun kind ->
        match List.filter (fun x -> x.r_kind = kind) replayed with
        | [] -> None
        | xs ->
            let sum f = List.fold_left (fun s x -> s +. f x) 0. xs in
            Some
              {
                kind;
                requests = List.length xs;
                handle_ms = sum (fun x -> x.whole_ms);
                traced_ms = sum (fun x -> x.traced_ms);
                parse_ms = sum (fun x -> let p, _, _, _ = x.parts in p);
                call_ms = sum (fun x -> let _, c, _, _ = x.parts in c);
                render_ms = sum (fun x -> let _, _, r, _ = x.parts in r);
                gap_ms =
                  Quantile.median
                    (List.map (fun x -> let p, c, r, _ = x.parts in x.whole_ms -. p -. c -. r) xs);
              })
      I.all_kinds
  in
  add acc "ledger.unattributed_frac"
    (List.fold_left (fun m r -> Float.max m (unattributed r)) 0. rows);
  let total f = List.fold_left (fun s r -> s +. f r) 0. rows in
  add acc "trace.overhead_frac"
    ((total (fun r -> r.traced_ms) /. total (fun r -> r.handle_ms)) -. 1.);
  { layers = Hashtbl.fold (fun name r l -> (name, !r) :: l) acc []; rows; mismatches; spans }
