(* A span-based tracer with per-domain buffers.

   A session belongs to the domain that calls [run]: it records the
   spans of that domain, and of every domain [with_context] binds to it
   (Parallel.map forwards the spawner's context into its workers).  A
   domain outside every session records nothing, so concurrent server
   workers each trace their own request without seeing a neighbour's
   spans, and any number of sessions may run at once.

   Each domain records finished spans into its own buffer — registered
   with the session once per binding (the only locked operation) and
   appended to lock-free afterwards — so Parallel.map workers trace
   without contending.  Buffers are merged when the session's run
   returns, i.e. after every worker has been joined.

   When no session is running anywhere, [with_span] is one atomic load
   and a branch in front of the traced function: the disabled tracer
   costs nothing on the hot paths. *)

type span = {
  id : int;
  parent : int; (* -1 = top-level *)
  name : string;
  start_ms : float; (* relative to the session start *)
  dur_ms : float;
  domain : int;
  kv : (string * float) list;
}

type session = {
  t0 : float;
  next_id : int Atomic.t;
  mutable buffers : span list ref list;
  reg : Mutex.t;
  live : bool Atomic.t; (* a context may outlive its session *)
}

(* An open (not yet finished) span on this domain's stack. *)
type frame = { fid : int; mutable fkv : (string * float) list }

(* Domain-local tracing state: the session this domain records into
   ([None] outside every session), its buffer, its stack of open spans,
   and the parent of its top-level spans. *)
type local = {
  mutable sess : session option;
  mutable buf : span list ref;
  mutable stack : frame list; (* innermost open span first *)
  mutable root_parent : int;
}

let dls : local Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { sess = None; buf = ref []; stack = []; root_parent = -1 })

(* Sessions running anywhere in the process: the disabled fast path
   reads this counter alone and never touches domain-local state. *)
let running : int Atomic.t = Atomic.make 0

let now_ms () = Unix.gettimeofday () *. 1000.

let enabled () = Atomic.get running > 0 && Option.is_some (Domain.DLS.get dls).sess

let with_span name f =
  if Atomic.get running = 0 then f ()
  else
    let l = Domain.DLS.get dls in
    match l.sess with
    | None -> f ()
    | Some sess ->
        let parent =
          match l.stack with fr :: _ -> fr.fid | [] -> l.root_parent
        in
        let id = Atomic.fetch_and_add sess.next_id 1 in
        let frame = { fid = id; fkv = [] } in
        l.stack <- frame :: l.stack;
        let buf = l.buf in
        let start = now_ms () in
        let finish () =
          let stop = now_ms () in
          (match l.stack with _ :: rest -> l.stack <- rest | [] -> ());
          buf :=
            {
              id;
              parent;
              name;
              start_ms = start -. sess.t0;
              dur_ms = stop -. start;
              domain = (Domain.self () :> int);
              kv = List.rev frame.fkv;
            }
            :: !buf
        in
        Fun.protect ~finally:finish f

let annotate key value =
  if Atomic.get running > 0 then
    match (Domain.DLS.get dls).stack with
    | fr :: _ ->
        (* repeated keys accumulate, so a phase run in several passes
           (set-cover size levels) reports totals *)
        fr.fkv <-
          (match List.assoc_opt key fr.fkv with
          | Some v0 -> (key, v0 +. value) :: List.remove_assoc key fr.fkv
          | None -> (key, value) :: fr.fkv)
    | [] -> ()

type ctx = session * int

let context () =
  if Atomic.get running = 0 then None
  else
    let l = Domain.DLS.get dls in
    match l.sess with
    | None -> None
    | Some sess ->
        Some (sess, match l.stack with fr :: _ -> fr.fid | [] -> l.root_parent)

(* [bind sess ~parent f] runs [f] with this domain recording into [sess]
   through a fresh buffer registered with it, top-level spans under
   [parent]; the domain's previous state comes back afterwards. *)
let bind sess ~parent f =
  let l = Domain.DLS.get dls in
  let saved_sess = l.sess
  and saved_buf = l.buf
  and saved_stack = l.stack
  and saved_root = l.root_parent in
  l.sess <- Some sess;
  l.buf <- ref [];
  l.stack <- [];
  l.root_parent <- parent;
  Mutex.lock sess.reg;
  sess.buffers <- l.buf :: sess.buffers;
  Mutex.unlock sess.reg;
  Fun.protect
    ~finally:(fun () ->
      l.sess <- saved_sess;
      l.buf <- saved_buf;
      l.stack <- saved_stack;
      l.root_parent <- saved_root)
    f

let with_context ctx f =
  match ctx with
  | Some (sess, parent) when Atomic.get sess.live -> bind sess ~parent f
  | Some _ | None -> f ()

let collect sess =
  (* every domain that recorded has finished by now: runs are
     synchronous and Parallel.map joins all its workers *)
  let spans = List.concat_map (fun b -> !b) sess.buffers in
  (* spans opened within one clock tick keep their opening order (ids
     are drawn at open), not the reverse closing order of the buffers *)
  List.sort
    (fun a b ->
      match Float.compare a.start_ms b.start_ms with 0 -> Int.compare a.id b.id | c -> c)
    spans

let run f =
  if Option.is_some (Domain.DLS.get dls).sess then
    (* nested traces do not exist: the inner [run] contributes its spans
       to the session already covering this domain *)
    (f (), [])
  else begin
    let sess =
      {
        t0 = now_ms ();
        next_id = Atomic.make 0;
        buffers = [];
        reg = Mutex.create ();
        live = Atomic.make true;
      }
    in
    Atomic.incr running;
    let result =
      Fun.protect
        ~finally:(fun () ->
          Atomic.set sess.live false;
          Atomic.decr running)
        (fun () -> bind sess ~parent:(-1) f)
    in
    (result, collect sess)
  end

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let children spans id =
  List.filter (fun s -> s.parent = id) spans

let top_level_total spans =
  List.fold_left
    (fun acc s -> if s.parent = -1 then acc +. s.dur_ms else acc)
    0. spans

let pp_kv ppf kv =
  match kv with
  | [] -> ()
  | kv ->
      Format.fprintf ppf "  [%s]"
        (String.concat " "
           (List.map
              (fun (k, v) ->
                if Float.is_integer v && Float.abs v < 1e15 then
                  Printf.sprintf "%s=%.0f" k v
                else Printf.sprintf "%s=%g" k v)
              kv))

let pp_forest line ppf ~parent spans =
  let rec forest prefix nodes =
    let n = List.length nodes in
    List.iteri
      (fun i s ->
        let last = i = n - 1 in
        line ppf (prefix ^ if last then "`- " else "|- ") s;
        forest (prefix ^ if last then "   " else "|  ") (children spans s.id))
      nodes
  in
  forest "" (children spans parent)

let pp_tree =
  pp_forest
    (fun ppf indent s ->
      Format.fprintf ppf "%s%-18s %10.3f ms%a@." indent s.name s.dur_ms pp_kv s.kv)
    ~parent:(-1)

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float v =
  if Float.is_nan v then "0"
  else if v = Float.infinity then "1e308"
  else if v = Float.neg_infinity then "-1e308"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let chrome_event s =
  let args =
    match s.kv with
    | [] -> ""
    | kv ->
        Printf.sprintf ",\"args\":{%s}"
          (String.concat ","
             (List.map
                (fun (k, v) ->
                  Printf.sprintf "\"%s\":%s" (json_escape k) (json_float v))
                kv))
  in
  Printf.sprintf
    "{\"name\":\"%s\",\"cat\":\"vplan\",\"ph\":\"X\",\"ts\":%.1f,\"dur\":%.1f,\"pid\":1,\"tid\":%d%s}"
    (json_escape s.name) (s.start_ms *. 1000.) (s.dur_ms *. 1000.) s.domain args

let chrome_json spans =
  "{\"traceEvents\":[" ^ String.concat "," (List.map chrome_event spans)
  ^ "],\"displayTimeUnit\":\"ms\"}"
