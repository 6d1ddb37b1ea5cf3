(* vplan_e2e — the end-to-end benchmark of the serving pipeline.

     vplan_e2e run [--workload W]... [--seed N] [--seconds S] [--trace 0|1]
                   [--repeat K] [--smoke] [--out-dir DIR] [--git SHA]
     vplan_e2e compare OLD.json NEW.json
     vplan_e2e manifest

   [run] measures each workload against a real vplan_server child over
   TCP (end-to-end metrics, tracing off), then — unless [--trace 0] —
   replays it in process with every layer call timed (per-layer
   metrics).  It prints every metric by name with its unit and sample
   count, writes result.json and e2e-trace.json to the output directory
   (e2e-out by default), and ends with one
   JSON line: {"correct", "attempted", "failed", "metrics"} holding the
   end-to-end metrics ([--trace 0]), the per-layer ones ([--trace 1]),
   or both.  [--repeat K] runs seeds N..N+K-1.  [manifest] prints
   BENCHMARK.json. *)

open Vplan
module I = Inputs

type opts = {
  mutable workloads : string list;
  mutable seed : int;
  mutable seconds : float option;
  mutable trace : bool option;  (** None: end-to-end and per-layer *)
  mutable repeat : int;
  mutable smoke : bool;
  mutable out_dir : string;
  mutable git : string;
}

type value = { value : float; unit_ : string; samples : int }

type result = {
  workload : string;
  seed : int;
  attempted : int;
  failed : int;
  errors : string list;
  problems : string list;  (** the measurement itself is invalid *)
  e2e : (string * value) list;
  layers : (string * value) list;
  kinds : (I.kind * float array) list;  (** sorted ok latencies by kind *)
  ledger : Ledger.row list;
  spans : Trace.span list;
}

let correct r = r.failed = 0 && r.problems = []

let error_frac r =
  if r.attempted = 0 then 0. else float_of_int r.failed /. float_of_int r.attempted

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let window_seconds opts =
  Option.value opts.seconds
    ~default:(if opts.smoke then 1. else float_of_int Spec.run_seconds)

(* -- one workload --------------------------------------------------- *)

(* What the server showed around its measured window. *)
type observed = {
  setup_times : float list;
  window : Window.window;
  cpu_ms : float;  (** server CPU over the window *)
  rss_mb : float;
  rtts : float list;  (** health round trips after the window *)
  counters : Window.counters * Window.counters;  (** before, after *)
}

(* Set up [setups] servers (keeping the last), run the window, read the
   server's counters and resources, stop it; [checks] collects every
   failure outside the window. *)
let drive ~setups ~seconds ~dir ~files ~checks (w : I.t) =
  Fun.protect ~finally:Child.stop_all @@ fun () ->
  let setup i = Window.setup ~dir ~files ~tally:checks w i in
  let earlier =
    List.init (setups - 1) (fun i ->
        let srv, conn, s = setup i in
        Loadgen.Client.close conn;
        Child.stop srv;
        s)
  in
  let srv, conn, last = setup (setups - 1) in
  let before = Window.server_counters conn in
  let cpu0 = Child.cpu_ms srv in
  let window = Window.run_window ~port:srv.Child.port ~seconds w in
  let cpu_ms = Child.cpu_ms srv -. cpu0 in
  let after = Window.server_counters conn in
  Window.cross_check checks ~before ~after window.Window.tallies;
  let rtts = Window.health_rtts conn 1000 in
  let rss_mb = Child.peak_rss_mb srv in
  Loadgen.Client.close conn;
  Child.stop srv;
  Window.check_equivalence checks w window.Window.tallies;
  { setup_times = earlier @ [ last ]; window; cpu_ms; rss_mb; rtts; counters = (before, after) }

let measure opts ~sizes name seed =
  let w = I.make sizes name seed in
  let dir =
    let d = Filename.concat opts.out_dir (Printf.sprintf "run-%s-%d" name seed) in
    if Filename.is_relative d then Filename.concat (Sys.getcwd ()) d else d
  in
  rm_rf dir;
  mkdir_p dir;
  let files =
    { Window.catalog = Filename.concat dir "catalog.dl"; data = Filename.concat dir "data.dl" }
  in
  write_file files.Window.catalog (I.catalog_text w);
  write_file files.Window.data (I.facts_text w);
  let checks = Window.tally () in
  let obs =
    drive ~setups:(if opts.smoke then 1 else 5) ~seconds:(window_seconds opts) ~dir ~files
      ~checks w
  in
  let tallies = Array.to_list obs.window.Window.tallies in
  let sum f = List.fold_left (fun s t -> s + f t) 0 tallies in
  let ok = sum (fun t -> t.Window.ok) in
  let kinds =
    List.filter_map
      (fun k ->
        match
          List.concat_map (fun t -> Window.Samples.to_list (List.assoc k t.Window.samples)) tallies
        with
        | [] -> None
        | l -> Some (k, Quantile.sorted_of_list l))
      I.all_kinds
  in
  let all = Quantile.sorted_of_list (List.concat_map (fun (_, a) -> Array.to_list a) kinds) in
  let n = Array.length all in
  let v ?(samples = n) unit_ value = { value; unit_; samples } in
  let e2e =
    [
      ("setup_s", v ~samples:(List.length obs.setup_times) "s" (Quantile.median obs.setup_times));
      ("ok_qps", v "1/s" (float_of_int ok /. obs.window.Window.elapsed_s));
      ("p50_ms", v "ms" (Quantile.percentile all 50));
      ("p90_ms", v "ms" (Quantile.percentile all 90));
      ("p99_ms", v "ms" (Quantile.percentile all 99));
      ("server_cpu_ms_per_req", v "ms" (obs.cpu_ms /. float_of_int (max 1 ok)));
      ("peak_rss_mb", v ~samples:1 "MB" obs.rss_mb);
    ]
  in
  (* a tail with fewer than ten samples beyond it is not a tail *)
  let guard =
    if opts.smoke then []
    else
      List.filter_map
        (fun p ->
          if Quantile.supported ~n p then None
          else
            Some
              (Printf.sprintf "p%d_ms has %d samples beyond it, needs %d" p
                 (Quantile.beyond ~n p) Quantile.min_beyond))
        [ 90; 99 ]
  in
  let layers, ledger, spans, ledger_problems =
    if opts.trace = Some false then ([], [], [], [])
    else
      let rep = Ledger.sweep w ~files ~dir in
      let before, after = obs.counters in
      let requests = after.Window.requests - before.Window.requests in
      let from_window =
        [
          ( "net.health_rtt_p50_ms",
            v ~samples:(List.length obs.rtts) "ms"
              (Quantile.percentile (Quantile.sorted_of_list obs.rtts) 50) );
          ( "service.hit_ratio",
            v ~samples:requests "ratio"
              (if requests = 0 then 0.
               else
                 float_of_int (after.Window.hits - before.Window.hits)
                 /. float_of_int requests) );
        ]
      in
      let layer (m : Spec.metric) =
        match List.assoc_opt m.Spec.name from_window with
        | Some x -> (m.Spec.name, x)
        | None ->
            let l = Option.value ~default:[] (List.assoc_opt m.Spec.name rep.Ledger.layers) in
            (m.Spec.name, v ~samples:(List.length l) m.Spec.unit_ (Quantile.median l))
      in
      let unexplained (row : Ledger.row) =
        let u = Ledger.unattributed row in
        if opts.smoke || u <= Ledger.max_unattributed then None
        else
          Some
            (Printf.sprintf "ledger leaves %.1f%% of %s requests unattributed" (100. *. u)
               (I.kind_name row.Ledger.kind))
      in
      ( List.map layer Spec.per_layer,
        rep.Ledger.rows,
        rep.Ledger.spans,
        (if rep.Ledger.mismatches = 0 then []
         else
           [
             Printf.sprintf "%d decomposed replies differ from the protocol's"
               rep.Ledger.mismatches;
           ])
        @ List.filter_map unexplained rep.Ledger.rows )
  in
  let not_finite (name, x) =
    if Float.is_finite x.value then None else Some (name ^ " is not a finite number")
  in
  let r =
    {
      workload = name;
      seed;
      attempted = checks.Window.attempted + sum (fun t -> t.Window.attempted);
      failed = checks.Window.failed + sum (fun t -> t.Window.failed);
      errors = checks.Window.errors @ List.concat_map (fun t -> t.Window.errors) tallies;
      problems = guard @ ledger_problems @ List.filter_map not_finite (e2e @ layers);
      e2e;
      layers;
      kinds;
      ledger;
      spans;
    }
  in
  (* a failed run keeps its server logs and inputs for diagnosis *)
  if correct r then rm_rf dir;
  r

(* -- reporting ------------------------------------------------------ *)

let print_result r =
  Printf.printf "\n== %s  seed=%d ==\n" r.workload r.seed;
  Printf.printf "window %s attempted=%d failed=%d error_frac=%g\n" r.workload r.attempted
    r.failed (error_frac r);
  List.iter (fun e -> Printf.printf "error %s %s\n" r.workload e) r.errors;
  List.iter (fun p -> Printf.printf "invalid %s %s\n" r.workload p) r.problems;
  let metric (name, x) =
    Printf.printf "metric %s %s %.6g %s n=%d\n" r.workload name x.value x.unit_ x.samples
  in
  List.iter metric r.e2e;
  List.iter
    (fun (k, a) ->
      let n = Array.length a in
      let tail p =
        if Quantile.supported ~n p then Printf.sprintf "%.4g" (Quantile.percentile a p) else "-"
      in
      Printf.printf "kind %s %s n=%d p50_ms=%.4g p90_ms=%s p99_ms=%s\n" r.workload
        (I.kind_name k) n (Quantile.percentile a 50) (tail 90) (tail 99))
    r.kinds;
  List.iter metric r.layers;
  List.iter
    (fun (row : Ledger.row) ->
      Printf.printf
        "ledger %s %s requests=%d handle_ms=%.4g parse_ms=%.4g call_ms=%.4g \
         render_ms=%.4g unattributed=%.4f\n"
        r.workload (I.kind_name row.Ledger.kind) row.Ledger.requests row.Ledger.handle_ms
        row.Ledger.parse_ms row.Ledger.call_ms row.Ledger.render_ms (Ledger.unattributed row))
    r.ledger

let num f = if Float.is_finite f then Json.Num f else Json.Null
let int n = Json.Num (float_of_int n)

let values_json l =
  Json.Obj
    (List.map
       (fun (name, x) ->
         ( name,
           Json.Obj
             [ ("value", num x.value); ("unit", Json.Str x.unit_); ("samples", int x.samples) ] ))
       l)

let result_json r =
  let kind (k, a) =
    let n = Array.length a in
    let tail p = if Quantile.supported ~n p then num (Quantile.percentile a p) else Json.Null in
    ( I.kind_name k,
      Json.Obj
        [
          ("samples", int n);
          ("p50_ms", num (Quantile.percentile a 50));
          ("p90_ms", tail 90);
          ("p99_ms", tail 99);
        ] )
  in
  let row (row : Ledger.row) =
    ( I.kind_name row.Ledger.kind,
      Json.Obj
        [
          ("requests", int row.Ledger.requests);
          ("handle_ms", num row.Ledger.handle_ms);
          ("parse_ms", num row.Ledger.parse_ms);
          ("call_ms", num row.Ledger.call_ms);
          ("render_ms", num row.Ledger.render_ms);
          ("unattributed_frac", num (Ledger.unattributed row));
        ] )
  in
  Json.Obj
    [
      ("correct", Json.Bool (correct r));
      ("attempted", int r.attempted);
      ("failed", int r.failed);
      ("error_frac", num (error_frac r));
      ("errors", Json.Arr (List.map (fun e -> Json.Str e) r.errors));
      ("problems", Json.Arr (List.map (fun e -> Json.Str e) r.problems));
      ("end_to_end", values_json r.e2e);
      ("per_layer", values_json r.layers);
      ("kinds", Json.Obj (List.map kind r.kinds));
      ("ledger", Json.Obj (List.map row r.ledger));
    ]

(* Median, min and max of each end-to-end metric over the runs. *)
let summary_json workloads results =
  let stats vs =
    Json.Obj
      [
        ("median", num (Quantile.median vs));
        ("min", num (List.fold_left Float.min infinity vs));
        ("max", num (List.fold_left Float.max neg_infinity vs));
      ]
  in
  Json.Obj
    (List.map
       (fun name ->
         let mine = List.filter (fun r -> r.workload = name) results in
         ( name,
           Json.Obj
             (List.map
                (fun (m : Spec.metric) ->
                  let vs = List.map (fun r -> (List.assoc m.Spec.name r.e2e).value) mine in
                  (m.Spec.name, stats vs))
                Spec.end_to_end) ))
       workloads)

(* The spans of every traced run, laid end to end on one timeline. *)
let trace_json results =
  let _, spans =
    List.fold_left
      (fun (offset, acc) r ->
        let shifted =
          List.map
            (fun (s : Trace.span) -> { s with Trace.start_ms = s.Trace.start_ms +. offset })
            r.spans
        in
        let stop =
          List.fold_left
            (fun m (s : Trace.span) -> Float.max m (s.Trace.start_ms +. s.Trace.dur_ms))
            offset shifted
        in
        (stop, List.rev_append shifted acc))
      (0., []) results
  in
  Trace.chrome_json (List.rev spans)

(* The last line of a run: what it measured, for one workload's run. *)
let summary_line opts results =
  let sum f = List.fold_left (fun s r -> s + f r) 0 results in
  let metrics =
    match results with
    | [ r ] ->
        let pick =
          match opts.trace with
          | Some false -> r.e2e
          | Some true -> r.layers
          | None -> r.e2e @ r.layers
        in
        List.map
          (fun (name, x) ->
            (name, Json.Obj [ ("value", num x.value); ("unit", Json.Str x.unit_) ]))
          pick
    | _ -> []
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (List.for_all correct results));
         ("attempted", int (sum (fun r -> r.attempted)));
         ("failed", int (sum (fun r -> r.failed)));
         ("metrics", Json.Obj metrics);
       ])

let run opts =
  let sizes = if opts.smoke then I.smoke else I.full in
  mkdir_p opts.out_dir;
  let runs =
    List.init opts.repeat (fun i ->
        let seed = opts.seed + i in
        ( seed,
          List.map
            (fun name ->
              let r = measure opts ~sizes name seed in
              print_result r;
              (* e2e-trace.json shows the first repeat; later spans are dropped *)
              if i = 0 then r else { r with spans = [] })
            opts.workloads ))
  in
  let results = List.concat_map snd runs in
  let out = Filename.concat opts.out_dir "result.json" in
  write_file out
    (Json.pretty
       (Json.Obj
          [
            ("schema", Json.Num 1.);
            ("git", Json.Str opts.git);
            ("nproc", int (Domain.recommended_domain_count ()));
            ("smoke", Json.Bool opts.smoke);
            ("seconds", Json.Num (window_seconds opts));
            ("summary", summary_json opts.workloads results);
            ( "runs",
              Json.Arr
                (List.map
                   (fun (seed, rs) ->
                     Json.Obj
                       [
                         ("seed", int seed);
                         ( "workloads",
                           Json.Obj (List.map (fun r -> (r.workload, result_json r)) rs) );
                       ])
                   runs) );
          ])
    ^ "\n");
  if List.exists (fun r -> r.spans <> []) results then
    write_file (Filename.concat opts.out_dir "e2e-trace.json") (trace_json results);
  Printf.printf "\nwrote %s\n" out;
  print_endline (summary_line opts results);
  if not (List.for_all correct results) then exit 1

(* -- command line --------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: vplan_e2e run [--workload W]... [--seed N] [--seconds S] [--trace 0|1]\n\
    \                     [--repeat K] [--smoke] [--out-dir DIR] [--git SHA]\n\
    \       vplan_e2e compare OLD.json NEW.json\n\
    \       vplan_e2e manifest";
  exit 2

let parse_run args =
  let o =
    {
      workloads = [];
      seed = 1;
      seconds = None;
      trace = None;
      repeat = 1;
      smoke = false;
      out_dir = "e2e-out";
      git = "unknown";
    }
  in
  let int_arg s k = match int_of_string_opt s with Some v when v >= 0 -> k v | _ -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest when List.mem w Spec.workload_names ->
        o.workloads <- o.workloads @ [ w ];
        go rest
    | "--seed" :: n :: rest -> int_arg n (fun v -> o.seed <- v); go rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
        | Some v when v > 0. -> o.seconds <- Some v
        | _ -> usage ());
        go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> o.trace <- Some (t = "1"); go rest
    | "--repeat" :: n :: rest -> int_arg n (fun v -> o.repeat <- max 1 v); go rest
    | "--smoke" :: rest -> o.smoke <- true; go rest
    | "--out-dir" :: d :: rest -> o.out_dir <- d; go rest
    | "--git" :: sha :: rest -> o.git <- sha; go rest
    | _ -> usage ()
  in
  go args;
  if o.workloads = [] then o.workloads <- Spec.workload_names;
  o

let () =
  (* the clients' own minor collections stop both client domains; a
     larger minor heap makes them rare *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20 };
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* no server outlives the benchmark, however it ends *)
  at_exit Child.stop_all;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ];
  let fail msg =
    prerr_endline ("vplan_e2e: " ^ msg);
    exit 2
  in
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> (
      try run (parse_run args) with
      | Failure msg | Sys_error msg -> fail msg
      | Unix.Unix_error (e, fn, arg) ->
          fail (Printf.sprintf "%s %s: %s" fn arg (Unix.error_message e)))
  | [ "compare"; old_file; new_file ] -> (
      try Compare.run old_file new_file with Failure msg | Sys_error msg -> fail msg)
  | [ "manifest" ] -> print_endline (Json.pretty (Spec.manifest ()))
  | _ -> usage ()
