(* Flight recorder: lock-free ring of recent request records.

   Writers claim a slot with [fetch_and_add] on the sequence counter and
   publish with a single [Atomic.set] of an immutable record — no torn
   reads are possible.  Two writers race for the same slot only when the
   ring wraps between their claims; whichever publishes last wins with a
   whole record, which is the ring's overwrite semantics anyway.
   Readers snapshot the slots and order by sequence number. *)

type record = {
  seq : int;
  ts_ms : float;
  trace : int;
  kind : string;
  latency_ms : float;
  source : string;
  mode : string;
  classification : string;
  qerror : float;
  answers : int;
  truncated : string;
  slow : bool;
  detail : string;
  spans : Trace.span list;
  profile : Trace.span list;
}

let capacity = 512
let slots : record option Atomic.t array = Array.init capacity (fun _ -> Atomic.make None)
let next : int Atomic.t = Atomic.make 0
let on : bool Atomic.t = Atomic.make true

let set_enabled b = Atomic.set on b

let append ?(trace = -1) ?(latency_ms = 0.) ?(source = "") ?(mode = "")
    ?(classification = "") ?(qerror = Float.nan) ?(answers = -1)
    ?(truncated = "") ?(slow = false) ?(detail = "") ?(spans = []) ?(profile = [])
    ~kind () =
  if Atomic.get on then begin
    let seq = Atomic.fetch_and_add next 1 in
    let r =
      {
        seq;
        ts_ms = Unix.gettimeofday () *. 1000.;
        trace;
        kind;
        latency_ms;
        source;
        mode;
        classification;
        qerror;
        answers;
        truncated;
        slow;
        detail;
        spans;
        profile;
      }
    in
    Atomic.set slots.(seq mod capacity) (Some r)
  end

let dump () =
  let rs =
    Array.to_list slots
    |> List.filter_map Atomic.get
    |> List.sort (fun a b -> compare a.seq b.seq)
  in
  rs

let find_trace id =
  List.fold_left
    (fun acc r -> if r.trace = id then Some r else acc)
    None (dump ())

let opt_str s = if s = "" then "-" else s
let opt_int n = if n < 0 then "-" else string_of_int n
let opt_q q = if Float.is_nan q then "-" else Printf.sprintf "%.2f" q

let render r =
  Printf.sprintf
    "seq=%d trace=%s kind=%s ms=%.3f source=%s mode=%s class=%s answers=%s \
     qerror=%s truncated=%s slow=%s spans=%d profile=%s%s"
    r.seq
    (opt_int r.trace)
    r.kind r.latency_ms (opt_str r.source) (opt_str r.mode)
    (opt_str r.classification) (opt_int r.answers) (opt_q r.qerror)
    (opt_str r.truncated)
    (if r.slow then "yes" else "no")
    (List.length r.spans)
    (if r.profile = [] then "no" else "yes")
    (if r.detail = "" then "" else " " ^ r.detail)

let to_json r =
  let str k v = Printf.sprintf "\"%s\":\"%s\"" k (Trace.json_escape v) in
  let num k v = Printf.sprintf "\"%s\":%s" k v in
  String.concat ","
    [
      num "seq" (string_of_int r.seq);
      num "ts_ms" (Printf.sprintf "%.3f" r.ts_ms);
      num "trace" (string_of_int r.trace);
      str "kind" r.kind;
      num "ms" (Printf.sprintf "%.3f" r.latency_ms);
      str "source" r.source;
      str "mode" r.mode;
      str "class" r.classification;
      num "answers" (string_of_int r.answers);
      num "qerror" (if Float.is_nan r.qerror then "null" else Printf.sprintf "%.4f" r.qerror);
      str "truncated" r.truncated;
      num "slow" (if r.slow then "true" else "false");
      num "spans" (string_of_int (List.length r.spans));
      num "profile" (if r.profile = [] then "false" else "true");
      str "detail" r.detail;
    ]
  |> Printf.sprintf "{%s}"

let reset () =
  Atomic.set on true;
  Atomic.set next 0;
  Array.iter (fun s -> Atomic.set s None) slots

(* ------------------------------------------------------------------ *)
(* Shared line sink                                                    *)

let sink_lock = Mutex.create ()

let log_line s =
  Mutex.lock sink_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock sink_lock)
    (fun () ->
      output_string stderr (s ^ "\n");
      flush stderr)
