(* A span-based tracer with per-domain buffers.

   Two kinds of session exist.  A *global* session ([run]) captures
   spans from every domain in the process — at most one is active at a
   time.  A *scoped* session ([run_scoped]) is bound to the calling
   domain through its domain-local state, so each worker domain of a
   server can trace its own request concurrently without seeing its
   neighbours' spans; workers spawned from inside a scoped session still
   join it through [context]/[with_context], exactly as with a global
   session.

   Each domain records finished spans into its own buffer — registered
   with the session once per domain (the only locked operation) and
   appended to lock-free afterwards — so Parallel.map workers trace
   without contending.  Buffers are merged when the session's run
   returns, i.e. after every worker has been joined.

   When no session is active, [with_span] is two atomic loads and a
   branch in front of the traced function: the disabled tracer costs
   nothing on the hot paths. *)

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
  live : bool Atomic.t; (* scoped sessions outlive their domain binding *)
  global : bool;
}

(* An open (not yet finished) span on this domain's stack. *)
type frame = { fid : int; mutable fkv : (string * float) list }

(* Domain-local tracing state.  [sess] remembers which session the
   buffer was registered with: a stale binding (from a previous trace)
   is re-initialized on first use under the new session. *)
type local = {
  mutable sess : session option;
  mutable buf : span list ref;
  mutable stack : frame list; (* innermost open span first *)
  mutable root_parent : int; (* parent of top-level spans on this domain *)
}

let dls : local Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { sess = None; buf = ref []; stack = []; root_parent = -1 })

let active : session option Atomic.t = Atomic.make None

(* Count of live scoped sessions process-wide: the disabled fast path
   must not touch domain-local state, so [with_span] checks this counter
   next to [active] and only consults the DLS when either fires. *)
let scoped : int Atomic.t = Atomic.make 0

let now_ms () = Unix.gettimeofday () *. 1000.

(* The scoped session bound to this domain, if it is still running. *)
let scoped_here l =
  if Atomic.get scoped = 0 then None
  else
    match l.sess with
    | Some s when (not s.global) && Atomic.get s.live -> Some s
    | _ -> None

(* The session a span recorded on this domain belongs to: the domain's
   own scoped session first (so a worker tracing its request never leaks
   spans into a concurrently started global trace), else the global
   one. *)
let session_here l =
  match scoped_here l with Some s -> Some s | None -> Atomic.get active

let enabled () =
  (match Atomic.get active with Some _ -> true | None -> false)
  || (Atomic.get scoped > 0 && scoped_here (Domain.DLS.get dls) <> None)

let bound_local l sess =
  let stale = match l.sess with Some s -> s != sess | None -> true in
  if stale then begin
    l.sess <- Some sess;
    l.buf <- ref [];
    l.stack <- [];
    l.root_parent <- -1;
    Mutex.lock sess.reg;
    sess.buffers <- l.buf :: sess.buffers;
    Mutex.unlock sess.reg
  end;
  l

let disabled () = Atomic.get active == None && Atomic.get scoped = 0

let with_span name f =
  if disabled () then f ()
  else
    let l = Domain.DLS.get dls in
    match session_here l with
    | None -> f ()
    | Some sess ->
        let l = bound_local l sess in
        let parent =
          match l.stack with fr :: _ -> fr.fid | [] -> l.root_parent
        in
        let id = Atomic.fetch_and_add sess.next_id 1 in
        let frame = { fid = id; fkv = [] } in
        l.stack <- frame :: l.stack;
        let start = now_ms () in
        let finish () =
          let stop = now_ms () in
          (match l.stack with _ :: rest -> l.stack <- rest | [] -> ());
          l.buf :=
            {
              id;
              parent;
              name;
              start_ms = start -. sess.t0;
              dur_ms = stop -. start;
              domain = (Domain.self () :> int);
              kv = List.rev frame.fkv;
            }
            :: !(l.buf)
        in
        Fun.protect ~finally:finish f

let annotate key value =
  if disabled () then ()
  else
    let l = Domain.DLS.get dls in
    match session_here l with
    | None -> ()
    | Some sess -> (
        match l.sess with
        | Some s when s == sess -> (
            match l.stack with
            | fr :: _ ->
                (* repeated keys accumulate, so a phase run in several
                   passes (set-cover size levels) reports totals *)
                fr.fkv <-
                  (match List.assoc_opt key fr.fkv with
                  | Some v0 -> (key, v0 +. value) :: List.remove_assoc key fr.fkv
                  | None -> (key, value) :: fr.fkv)
            | [] -> ())
        | _ -> ())

type ctx = session * int

let context () =
  if disabled () then None
  else
    let l = Domain.DLS.get dls in
    match session_here l with
    | None -> None
    | Some sess ->
        let l = bound_local l sess in
        let parent =
          match l.stack with fr :: _ -> fr.fid | [] -> l.root_parent
        in
        Some (sess, parent)

let with_context ctx f =
  match ctx with
  | None -> f ()
  | Some (sess, parent) ->
      (* only honor the context while its session is still running; a
         context surviving past its run is ignored *)
      let still_live =
        if sess.global then (
          match Atomic.get active with
          | Some live -> live == sess
          | None -> false)
        else Atomic.get sess.live
      in
      if not still_live then f ()
      else begin
        let l = bound_local (Domain.DLS.get dls) sess in
        let saved = l.root_parent in
        l.root_parent <- parent;
        Fun.protect ~finally:(fun () -> l.root_parent <- saved) f
      end

let make_session ~global =
  {
    t0 = now_ms ();
    next_id = Atomic.make 0;
    buffers = [];
    reg = Mutex.create ();
    live = Atomic.make true;
    global;
  }

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
  if (not (disabled ())) && session_here (Domain.DLS.get dls) <> None then
    (* nested traces do not exist: the inner [run] contributes its spans
       to the session already covering this domain *)
    (f (), [])
  else
    let sess = make_session ~global:true in
    if not (Atomic.compare_and_set active None (Some sess)) then (f (), [])
    else
      let result =
        Fun.protect
          ~finally:(fun () ->
            Atomic.set active None;
            Atomic.set sess.live false)
          f
      in
      (result, collect sess)

let run_scoped f =
  let l = Domain.DLS.get dls in
  if (not (disabled ())) && session_here l <> None then
    (* already traced (enclosing global or scoped session): contribute *)
    (f (), [])
  else begin
    let sess = make_session ~global:false in
    let saved_sess = l.sess
    and saved_buf = l.buf
    and saved_stack = l.stack
    and saved_root = l.root_parent in
    l.sess <- Some sess;
    l.buf <- ref [];
    l.stack <- [];
    l.root_parent <- -1;
    sess.buffers <- [ l.buf ];
    Atomic.incr scoped;
    let finish () =
      Atomic.set sess.live false;
      Atomic.decr scoped;
      l.sess <- saved_sess;
      l.buf <- saved_buf;
      l.stack <- saved_stack;
      l.root_parent <- saved_root
    in
    let result = Fun.protect ~finally:finish f in
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

let pp_tree ppf spans =
  let rec pp_forest prefix nodes =
    let n = List.length nodes in
    List.iteri
      (fun i s ->
        let last = i = n - 1 in
        let branch = if last then "`- " else "|- " in
        Format.fprintf ppf "%s%s%-18s %10.3f ms%a@." prefix branch s.name s.dur_ms
          pp_kv s.kv;
        let prefix' = prefix ^ if last then "   " else "|  " in
        pp_forest prefix' (children spans s.id))
      nodes
  in
  pp_forest "" (children spans (-1))

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

let chrome_event ~name ~ts_us ~dur_us ?(tid = 0) ?(args = []) () =
  let args_s =
    match args with
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
    (json_escape name) ts_us dur_us tid args_s

let chrome_json ?(extra = []) spans =
  let evs =
    List.map
      (fun s ->
        chrome_event ~name:s.name ~ts_us:(s.start_ms *. 1000.)
          ~dur_us:(s.dur_ms *. 1000.) ~tid:s.domain ~args:s.kv ())
      spans
  in
  "{\"traceEvents\":[" ^ String.concat "," (evs @ extra)
  ^ "],\"displayTimeUnit\":\"ms\"}"
