(* A process-global metrics registry: counters, gauges, and fixed-bucket
   latency histograms.

   All samples land in [Atomic.t] cells, so any domain may increment any
   metric without holding a lock; the registry mutex guards only
   registration (one hit per metric name per process, normally at module
   initialization).  Registration order is preserved so that {!dump}
   output is stable. *)

type counter = int Atomic.t
type gauge = int Atomic.t

(* Histogram samples are milliseconds; the sum is kept in integral
   nanoseconds so it can live in a lock-free [Atomic.t] too (a float sum
   would need a CAS loop and lose associativity across domains). *)
type histogram = {
  counts : int Atomic.t array; (* counts.(i) <- samples with v <= bounds.(i) *)
  sum_ns : int Atomic.t;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

(* Upper bucket bounds in milliseconds, ascending; the implicit last
   bucket is +infinity.  The 1-2.5-5 decade ladder spans 10us..10s, the
   range a rewrite request can realistically land in. *)
let bucket_bounds =
  [|
    0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.; 2.5; 5.; 10.; 25.; 50.; 100.; 250.;
    500.; 1000.; 2500.; 5000.; 10000.;
  |]

let num_buckets = Array.length bucket_bounds + 1

(* [bucket_index v] — the first bucket whose upper bound is >= v
   (Prometheus [le] semantics: a sample exactly on a bound belongs to
   that bound's bucket); the overflow bucket otherwise. *)
let bucket_index v =
  let n = Array.length bucket_bounds in
  let rec go i = if i >= n then n else if v <= bucket_bounds.(i) then i else go (i + 1) in
  go 0

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let helps : (string, string) Hashtbl.t = Hashtbl.create 64
let order : string list ref = ref [] (* reverse registration order *)
let reg_lock = Mutex.create ()

let registered name help make cast =
  Mutex.lock reg_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock reg_lock)
    (fun () ->
      (match help with
      | Some h when not (Hashtbl.mem helps name) -> Hashtbl.add helps name h
      | _ -> ());
      match Hashtbl.find_opt registry name with
      | Some m -> cast m
      | None ->
          let m = make () in
          Hashtbl.add registry name m;
          order := name :: !order;
          cast m)

let counter ?help name =
  registered name help
    (fun () -> Counter (Atomic.make 0))
    (function
      | Counter c -> c
      | _ -> invalid_arg ("Metrics.counter: " ^ name ^ " registered with another type"))

let gauge ?help name =
  registered name help
    (fun () -> Gauge (Atomic.make 0))
    (function
      | Gauge g -> g
      | _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " registered with another type"))

let histogram ?help name =
  registered name help
    (fun () ->
      Histogram
        { counts = Array.init num_buckets (fun _ -> Atomic.make 0); sum_ns = Atomic.make 0 })
    (function
      | Histogram h -> h
      | _ ->
          invalid_arg ("Metrics.histogram: " ^ name ^ " registered with another type"))

let incr c = Atomic.incr c
let add c n = ignore (Atomic.fetch_and_add c n)
let value c = Atomic.get c
let set g v = Atomic.set g v

let observe h ms =
  let ms = if Float.is_nan ms || ms < 0. then 0. else ms in
  Atomic.incr h.counts.(bucket_index ms);
  ignore (Atomic.fetch_and_add h.sum_ns (int_of_float (ms *. 1e6)))

type summary = {
  count : int;
  sum_ms : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
}

(* Quantile estimate from the bucket counts: the upper bound of the first
   bucket at which the cumulative count reaches [ceil (q * count)].  A
   rank landing in the overflow bucket reports [infinity] — the histogram
   only knows the sample exceeded its largest bound. *)
let quantile_of_counts counts total q =
  if total = 0 then 0.
  else begin
    let rank = int_of_float (Float.ceil (q *. float_of_int total)) in
    let rank = max 1 rank in
    let cum = ref 0 and result = ref Float.infinity in
    (try
       Array.iteri
         (fun i c ->
           cum := !cum + c;
           if !cum >= rank then begin
             (if i < Array.length bucket_bounds then result := bucket_bounds.(i));
             raise Exit
           end)
         counts
     with Exit -> ());
    !result
  end

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.
  | n -> sorted.(min (n - 1) (max 1 (int_of_float (Float.ceil (p *. float_of_int n))) - 1))

let summary h =
  let counts = Array.map Atomic.get h.counts in
  let total = Array.fold_left ( + ) 0 counts in
  {
    count = total;
    sum_ms = float_of_int (Atomic.get h.sum_ns) /. 1e6;
    p50_ms = quantile_of_counts counts total 0.50;
    p90_ms = quantile_of_counts counts total 0.90;
    p99_ms = quantile_of_counts counts total 0.99;
  }

let pp_bound ppf b =
  if Float.is_integer b then Format.fprintf ppf "%.0f" b
  else Format.fprintf ppf "%g" b

(* Help text defaults to the metric name with underscores spaced out, so
   every family carries a HELP line even when the registration site gave
   none. *)
let help_of name =
  match Hashtbl.find_opt helps name with
  | Some h -> h
  | None -> String.map (fun c -> if c = '_' then ' ' else c) name

(* Prometheus text exposition format: each family gets [# HELP] and
   [# TYPE] lines, histograms emit cumulative [_bucket{le=...}] series
   ending in [+Inf] plus [_sum] and [_count].  A real scraper can ingest
   the output unmodified. *)
let dump ppf =
  let header name kind =
    Format.fprintf ppf "# HELP %s %s@." name (help_of name);
    Format.fprintf ppf "# TYPE %s %s@." name kind
  in
  let emit name = function
    | Counter c ->
        header name "counter";
        Format.fprintf ppf "%s %d@." name (Atomic.get c)
    | Gauge g ->
        header name "gauge";
        Format.fprintf ppf "%s %d@." name (Atomic.get g)
    | Histogram h ->
        header name "histogram";
        let counts = Array.map Atomic.get h.counts in
        let total = Array.fold_left ( + ) 0 counts in
        let cum = ref 0 in
        Array.iteri
          (fun i c ->
            cum := !cum + c;
            if i < Array.length bucket_bounds then
              Format.fprintf ppf "%s_bucket{le=\"%a\"} %d@." name pp_bound
                bucket_bounds.(i) !cum
            else Format.fprintf ppf "%s_bucket{le=\"+Inf\"} %d@." name !cum)
          counts;
        Format.fprintf ppf "%s_sum %.3f@." name
          (float_of_int (Atomic.get h.sum_ns) /. 1e6);
        Format.fprintf ppf "%s_count %d@." name total
  in
  Mutex.lock reg_lock;
  let names = List.rev !order in
  Mutex.unlock reg_lock;
  List.iter (fun name -> emit name (Hashtbl.find registry name)) names
