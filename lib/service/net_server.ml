module Bounded_queue = Vplan_parallel.Bounded_queue
module Pool = Vplan_parallel.Pool
module Metrics = Vplan_obs.Metrics

(* -- metrics ------------------------------------------------------- *)

let connections_active = Metrics.gauge "vplan_connections_active"
let connections_total = Metrics.counter "vplan_connections_total"
let connection_errors_total = Metrics.counter "vplan_connection_errors_total"
let requests_shed_total = Metrics.counter "vplan_requests_shed_total"
let queue_depth = Metrics.gauge "vplan_queue_depth"
let net_requests_total = Metrics.counter "vplan_net_requests_total"
let net_request_ms = Metrics.histogram "vplan_net_request_ms"

(* -- connection state (owned by the poller; [busy]/[close_after] are
   handed to exactly one worker at a time and handed back through the
   completion list, so they never race) ----------------------------- *)

type conn = {
  id : int;
  fd : Unix.file_descr;
  inbuf : Buffer.t;  (* bytes of a partial line *)
  pending : string Queue.t;  (* complete lines not yet dispatched *)
  chandle : Buffer.t -> string list -> bool;
  mutable busy : bool;  (* a worker owns a request of this conn *)
  mutable eof : bool;
  mutable dead : bool;  (* fd closed (or about to be) *)
  mutable close_after : bool;  (* close once the current response is out *)
  mutable served : int;  (* requests accepted (not shed) *)
}

type job = { jc : conn; jlines : string list; jstart : float }

type t = {
  listen_fd : Unix.file_descr;
  bound_port : int;
  workers : int;
  queue : job Bounded_queue.t;
  max_requests : int option;
  extra_lines : string -> int;
  handler : unit -> Buffer.t -> string list -> bool;
  conns : (int, conn) Hashtbl.t;
  by_fd : (Unix.file_descr, conn) Hashtbl.t;  (* live fds only *)
  stopping : bool Atomic.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  completed : conn list ref;
  cmutex : Mutex.t;
  mutable next_id : int;
}

(* Never grow a request line without bound: a client that streams
   gigabytes with no newline is shed by disconnect. *)
let max_line_bytes = 1 lsl 20

(* A worker's reply buffer starts at [initial_reply_bytes] and keeps
   whatever it grew to, up to [max_retained_bytes]: a reply past that is
   served, then the buffer drops back to its initial bytes.  The ceiling
   matches the request-line cap, so the catalog's largest replies (a few
   hundred KB) never shrink and regrow. *)
let initial_reply_bytes = 1 lsl 16
let max_retained_bytes = max_line_bytes

(* [Unix.write] copies through a 64 KiB stack buffer per call; the
   worker stages at most that much of its reply at a time. *)
let write_chunk_bytes = 1 lsl 16

let now_ms () = Unix.gettimeofday () *. 1000.

let create ?(host = "127.0.0.1") ?(port = 0) ?(workers = 2)
    ?(queue_capacity = 128) ?max_requests ?(extra_lines = fun _ -> 0) ~handler
    () =
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.listen listen_fd 256;
     Unix.set_nonblock listen_fd
   with e ->
     Unix.close listen_fd;
     raise e);
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    listen_fd;
    bound_port;
    workers = max 1 workers;
    queue = Bounded_queue.create ~capacity:(max 1 queue_capacity);
    max_requests;
    extra_lines;
    handler;
    conns = Hashtbl.create 64;
    by_fd = Hashtbl.create 64;
    stopping = Atomic.make false;
    wake_r;
    wake_w;
    completed = ref [];
    cmutex = Mutex.create ();
    next_id = 0;
  }

let port t = t.bound_port

let wake t = try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1) with _ -> ()

let stop t =
  Atomic.set t.stopping true;
  wake t

(* -- writing ------------------------------------------------------- *)

let frame buf =
  let n = Buffer.length buf in
  if n > 0 && Buffer.nth buf (n - 1) <> '\n' then Buffer.add_char buf '\n';
  Buffer.add_string buf ".\n"

let reply_buffer () = Buffer.create initial_reply_bytes

let recycle buf =
  if Buffer.length buf > max_retained_bytes then Buffer.reset buf
  else Buffer.clear buf

let framed text =
  let buf = Buffer.create (String.length text + 3) in
  Buffer.add_string buf text;
  frame buf;
  Buffer.contents buf

let busy_reply = framed "err busy"
let budget_reply = framed "err request budget exhausted"

exception Write_failed

(* Blocking-with-patience write on a nonblocking fd, used by workers:
   a stalled client blocks only its own worker, and only up to the
   patience cap — then it is treated as a connection error. *)
let write_all fd data len =
  let rounds = ref 0 in
  let rec go off =
    if off < len then
      match Unix.write fd data off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          incr rounds;
          if !rounds > 30 then raise Write_failed;
          ignore (Unix.select [] [ fd ] [] 1.0);
          go off
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (_, _, _) -> raise Write_failed
  in
  go 0

(* The whole reply, staged through the worker's [chunk]: [Buffer.t]
   lends its bytes only by copy, and a retained chunk takes that copy
   without a reply-sized allocation. *)
let write_buffer fd chunk buf =
  let len = Buffer.length buf in
  let rec go off =
    if off < len then begin
      let n = min (Bytes.length chunk) (len - off) in
      Buffer.blit buf off chunk 0 n;
      write_all fd chunk n;
      go (off + n)
    end
  in
  go 0

(* Poller-side write (shed / budget errors): one nonblocking burst.  A
   client that cannot absorb a few bytes while flooding us is dropped —
   the poller must never block on one connection. *)
let direct_send t conn data =
  let len = String.length data in
  let rec go off =
    if off < len then
      match Unix.write_substring conn.fd data off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (_, _, _) ->
          Metrics.incr connection_errors_total;
          conn.close_after <- true
  in
  ignore t;
  go 0

(* -- poller: connection lifecycle ---------------------------------- *)

let set_active_gauge t = Metrics.set connections_active (Hashtbl.length t.conns)

let close_conn t conn =
  if Hashtbl.mem t.conns conn.id then
    if conn.busy then begin
      (* a worker still owns the fd; close on completion *)
      conn.dead <- true;
      conn.close_after <- true
    end
    else begin
      conn.dead <- true;
      (try Unix.close conn.fd with Unix.Unix_error (_, _, _) -> ());
      Hashtbl.remove t.conns conn.id;
      Hashtbl.remove t.by_fd conn.fd;
      set_active_gauge t
    end

let accept_all t =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
        Unix.set_nonblock fd;
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error (_, _, _) -> ());
        t.next_id <- t.next_id + 1;
        let conn =
          {
            id = t.next_id;
            fd;
            inbuf = Buffer.create 256;
            pending = Queue.create ();
            chandle = t.handler ();
            busy = false;
            eof = false;
            dead = false;
            close_after = false;
            served = 0;
          }
        in
        Hashtbl.add t.conns conn.id conn;
        Hashtbl.replace t.by_fd fd conn;
        Metrics.incr connections_total;
        set_active_gauge t;
        loop ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error (_, _, _) -> Metrics.incr connection_errors_total
  in
  loop ()

let split_lines conn =
  let s = Buffer.contents conn.inbuf in
  let n = String.length s in
  let start = ref 0 in
  (try
     while true do
       let i = String.index_from s !start '\n' in
       let stop = if i > !start && s.[i - 1] = '\r' then i - 1 else i in
       let line = String.sub s !start (stop - !start) in
       if String.trim line <> "" then Queue.push line conn.pending;
       start := i + 1
     done
   with Not_found -> ());
  Buffer.clear conn.inbuf;
  Buffer.add_substring conn.inbuf s !start (n - !start);
  if Buffer.length conn.inbuf > max_line_bytes then begin
    Metrics.incr connection_errors_total;
    conn.eof <- true;
    Buffer.clear conn.inbuf
  end

let on_readable ~chunk conn =
  let rec loop () =
    match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
    | 0 -> conn.eof <- true
    | n ->
        Buffer.add_subbytes conn.inbuf chunk 0 n;
        if n = Bytes.length chunk then loop ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error (_, _, _) ->
        (* reset mid-stream: contain to this connection *)
        Metrics.incr connection_errors_total;
        conn.eof <- true
  in
  if not conn.dead then begin
    loop ();
    split_lines conn
  end

(* The next complete request buffered on [conn], if any: the first
   line plus however many extra lines the protocol says it needs.  At
   EOF a truncated multi-line request is handed over short — the
   handler answers the same "end of input" error the stdio loop
   would. *)
let next_request t conn =
  if Queue.is_empty conn.pending then None
  else
    let first = Queue.peek conn.pending in
    let need = 1 + max 0 (t.extra_lines first) in
    let have = Queue.length conn.pending in
    if have >= need || conn.eof then begin
      let take = min need have in
      Some (List.init take (fun _ -> Queue.pop conn.pending))
    end
    else None

let rec try_dispatch t conn =
  if (not conn.busy) && (not conn.dead) && not (Atomic.get t.stopping) then
    match next_request t conn with
    | None -> ()
    | Some lines ->
        let over_budget =
          match t.max_requests with
          | Some m -> conn.served >= m
          | None -> false
        in
        if over_budget then begin
          direct_send t conn budget_reply;
          close_conn t conn
        end
        else
          let job = { jc = conn; jlines = lines; jstart = now_ms () } in
          if Bounded_queue.try_push t.queue job then begin
            conn.served <- conn.served + 1;
            conn.busy <- true;
            Metrics.set queue_depth (Bounded_queue.length t.queue)
          end
          else begin
            (* full queue: shed with a fast error instead of queueing
               unbounded latency *)
            Metrics.incr requests_shed_total;
            Vplan_obs.Recorder.append ~kind:"shed" ~truncated:"busy" ();
            direct_send t conn busy_reply;
            if not conn.close_after then try_dispatch t conn
            else close_conn t conn
          end

let maybe_close_idle t conn =
  if
    (not conn.busy) && (not conn.dead) && conn.eof
    && Queue.is_empty conn.pending
  then close_conn t conn

let drain_wake t =
  let chunk = Bytes.create 64 in
  let rec loop () =
    match Unix.read t.wake_r chunk 0 (Bytes.length chunk) with
    | n when n > 0 -> loop ()
    | _ -> ()
    | exception Unix.Unix_error (_, _, _) -> ()
  in
  loop ()

let process_completions t =
  let finished =
    Mutex.protect t.cmutex (fun () ->
        let l = !(t.completed) in
        t.completed := [];
        l)
  in
  List.iter
    (fun conn ->
      conn.busy <- false;
      if conn.close_after || conn.dead then close_conn t conn
      else begin
        try_dispatch t conn;
        maybe_close_idle t conn
      end)
    finished

(* -- workers ------------------------------------------------------- *)

let worker_loop t =
  let out = reply_buffer () in
  let chunk = Bytes.create write_chunk_bytes in
  let rec loop () =
    match Bounded_queue.pop t.queue with
    | None -> ()
    | Some job ->
        Metrics.set queue_depth (Bounded_queue.length t.queue);
        let close =
          try job.jc.chandle out job.jlines
          with e ->
            (* the protocol layer contains its own failures; this
               catches handler bugs so the serving tier survives them,
               dropping whatever the handler wrote before it raised *)
            Buffer.clear out;
            Buffer.add_string out "err internal: ";
            Buffer.add_string out (Printexc.to_string e);
            false
        in
        frame out;
        (match write_buffer job.jc.fd chunk out with
        | () -> if close then job.jc.close_after <- true
        | exception Write_failed ->
            (* client went away mid-response: contain to this conn *)
            Metrics.incr connection_errors_total;
            job.jc.close_after <- true);
        recycle out;
        Metrics.incr net_requests_total;
        Metrics.observe net_request_ms (now_ms () -. job.jstart);
        (* coalesced wake: only the transition empty -> nonempty needs a
           pipe byte — the poller drains the whole list per wake, so
           later completions ride along without a syscall each *)
        let was_empty =
          Mutex.protect t.cmutex (fun () ->
              let e = !(t.completed) = [] in
              t.completed := job.jc :: !(t.completed);
              e)
        in
        if was_empty then wake t;
        loop ()
  in
  loop ()

(* -- the poller ---------------------------------------------------- *)

let any_busy t = Hashtbl.fold (fun _ c acc -> acc || c.busy) t.conns false

let run t =
  (* a dying client must never kill the server with SIGPIPE; write
     errors surface as EPIPE and are contained per connection *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let pool = Pool.spawn ~workers:t.workers (fun _ -> worker_loop t) in
  let listening = ref true in
  let chunk = Bytes.create 8192 in
  let select fds timeout =
    match Unix.select fds [] [] timeout with
    | readable, _, _ -> readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  in
  let rec loop () =
    if Atomic.get t.stopping then begin
      if !listening then begin
        Unix.close t.listen_fd;
        listening := false
      end;
      (* drain: queued and in-flight requests finish; buffered lines
         not yet accepted are dropped with the connection *)
      if any_busy t || Bounded_queue.length t.queue > 0 then begin
        let readable = select [ t.wake_r ] 0.2 in
        if readable <> [] then drain_wake t;
        process_completions t;
        loop ()
      end
    end
    else begin
      let conn_fds =
        Hashtbl.fold (fun _ c acc -> if c.dead then acc else c.fd :: acc) t.conns []
      in
      let fds =
        t.wake_r :: (if !listening then [ t.listen_fd ] else []) @ conn_fds
      in
      let readable = select fds 1.0 in
      (* one pass over the (usually short) ready list, constant-time
         fd lookup — never a conns × ready product *)
      let touched =
        List.fold_left
          (fun acc fd ->
            if fd == t.wake_r then begin
              drain_wake t;
              acc
            end
            else if !listening && fd == t.listen_fd then begin
              accept_all t;
              acc
            end
            else
              match Hashtbl.find_opt t.by_fd fd with
              | Some c when not c.dead -> c :: acc
              | Some _ | None -> acc)
          [] readable
      in
      List.iter (on_readable ~chunk) touched;
      process_completions t;
      List.iter
        (fun c ->
          if not c.dead then begin
            try_dispatch t c;
            maybe_close_idle t c
          end)
        touched;
      loop ()
    end
  in
  loop ();
  (* shutdown: workers finish the queue's tail, then sockets close *)
  Bounded_queue.close t.queue;
  Pool.join pool;
  process_completions t;
  let remaining = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
  List.iter
    (fun c ->
      c.busy <- false;
      close_conn t c)
    remaining;
  (try Unix.close t.wake_r with Unix.Unix_error (_, _, _) -> ());
  (try Unix.close t.wake_w with Unix.Unix_error (_, _, _) -> ());
  if !listening then (
    try Unix.close t.listen_fd with Unix.Unix_error (_, _, _) -> ());
  Metrics.set connections_active 0;
  Metrics.set queue_depth 0
