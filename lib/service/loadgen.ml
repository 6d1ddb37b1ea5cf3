module Metrics = Vplan_obs.Metrics

type result = {
  clients : int;
  sent : int;
  completed : int;
  ok : int;
  hits : int;
  shed : int;
  retried : int;
  errors : int;
  closed_early : int;
  elapsed_ms : float;
  qps : float;
  p50_ms : float;
  p99_ms : float;
  max_ms : float;
}

(* Exponential backoff with full jitter: attempt [k] (0-based) waits
   uniformly in [0, backoff_ms * 2^k].  Jitter decorrelates the fleet —
   without it every shed client would retry into the same queue-full
   instant that shed it. *)
let backoff_delay_s ~backoff_ms attempt =
  let cap = backoff_ms *. (2.0 ** float_of_int attempt) in
  Random.float (Float.max 1e-6 cap) /. 1000.0

(* One driven connection.  [outbox] is bytes not yet written (requests
   are tiny, so string concatenation on the rare short write is fine);
   [starts] holds (send time, request line, attempt) for every
   in-flight request, FIFO, which is sound because the server answers
   each connection in request order.  Only the first line of a response
   matters for classification, so the rest are discarded as they
   arrive.  [retry_at] is an [err busy] response waiting out its
   backoff before being resent on this connection. *)
type conn = {
  id : int;
  fd : Unix.file_descr;
  mutable outbox : string;
  inbuf : Buffer.t;
  starts : (float * string * int) Queue.t;
  mutable retry_at : (float * string * int) option;
  mutable first_line : string option;
  mutable in_response : bool;
  mutable seq : int;
  mutable closed : bool;
}

let connect_conn ~host ~port id =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     Unix.set_nonblock fd
   with e ->
     (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
     raise e);
  {
    id;
    fd;
    outbox = "";
    inbuf = Buffer.create 256;
    starts = Queue.create ();
    retry_at = None;
    first_line = None;
    in_response = false;
    seq = 0;
    closed = false;
  }

let close_conn c =
  if not c.closed then (
    c.closed <- true;
    try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ())

(* After the deadline, stragglers get this long to answer. *)
let grace_s = 2.0

let run ?(host = "127.0.0.1") ~port ~clients ?(retries = 0) ?(backoff_ms = 5.0)
    ~duration_ms ~request () =
  if clients < 1 then invalid_arg "Loadgen.run: clients must be >= 1";
  if retries < 0 then invalid_arg "Loadgen.run: retries must be >= 0";
  let conns = Array.init clients (connect_conn ~host ~port) in
  let sent = ref 0 in
  let completed = ref 0 in
  let ok = ref 0 in
  let hits = ref 0 in
  let shed = ref 0 in
  let retried = ref 0 in
  let errors = ref 0 in
  let latencies = ref [] in
  let nlat = ref 0 in
  let start = Unix.gettimeofday () in
  let deadline = start +. (duration_ms /. 1000.0) in
  let hard_stop = deadline +. grace_s in
  let post now c line attempt =
    c.outbox <- c.outbox ^ line ^ "\n";
    Queue.push (now, line, attempt) c.starts;
    (* optimistic immediate write: the socket buffer is almost always
       empty in closed loop, and skipping the select round halves the
       syscalls per request *)
    match Unix.write_substring c.fd c.outbox 0 (String.length c.outbox) with
    | n -> c.outbox <- String.sub c.outbox n (String.length c.outbox - n)
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
        ()
    | exception Unix.Unix_error (_, _, _) -> close_conn c
  in
  let enqueue now c =
    let line = request ~client:c.id ~seq:c.seq in
    c.seq <- c.seq + 1;
    incr sent;
    post now c line 0
  in
  (* A connection sends on completion of its last request; a due retry
     goes out first — and past the deadline pending retries are
     abandoned (counted shed) so the run can end. *)
  let schedule now =
    Array.iter
      (fun c ->
        match c.retry_at with
        | Some (due, line, attempt) when not c.closed ->
            if now >= deadline then begin
              c.retry_at <- None;
              incr shed
            end
            else if now >= due then begin
              c.retry_at <- None;
              incr retried;
              post now c line attempt
            end
        | Some _ ->
            c.retry_at <- None;
            incr shed
        | None -> ())
      conns;
    if now < deadline then
      Array.iter
        (fun c ->
          if
            (not c.closed)
            && Queue.is_empty c.starts
            && c.retry_at = None
            && c.outbox = ""
          then enqueue now c)
        conns
  in
  let on_line c line =
    if c.in_response then (
      if line = "." then (
        c.in_response <- false;
        incr completed;
        let now = Unix.gettimeofday () in
        let t0, req_line, attempt = Queue.pop c.starts in
        let ms = (now -. t0) *. 1000.0 in
        (match c.first_line with
        | Some l when String.length l >= 2 && String.sub l 0 2 = "ok" ->
            incr ok;
            latencies := ms :: !latencies;
            incr nlat;
            let hit =
              (* first line of a rewrite reply: "ok N hit trace=T" *)
              match String.split_on_char ' ' l with
              | _ :: _ :: "hit" :: _ -> true
              | _ -> false
            in
            if hit then incr hits
        | Some "err busy" ->
            (* one retry slot per connection is enough: a connection
               has one request in flight *)
            if attempt < retries && c.retry_at = None then
              c.retry_at <-
                Some (now +. backoff_delay_s ~backoff_ms attempt, req_line, attempt + 1)
            else incr shed
        | Some _ | None -> incr errors);
        c.first_line <- None))
    else (
      c.in_response <- true;
      if line = "." then (
        (* a response that is only the terminator: empty reply *)
        c.in_response <- false;
        incr completed;
        ignore (Queue.pop c.starts);
        incr errors)
      else c.first_line <- Some line)
  in
  let feed c data len =
    Buffer.add_subbytes c.inbuf data 0 len;
    let s = Buffer.contents c.inbuf in
    Buffer.clear c.inbuf;
    let n = String.length s in
    let pos = ref 0 in
    (try
       while !pos < n do
         match String.index_from s !pos '\n' with
         | exception Not_found ->
             Buffer.add_substring c.inbuf s !pos (n - !pos);
             pos := n
         | nl ->
             let line = String.sub s !pos (nl - !pos) in
             let line =
               let ll = String.length line in
               if ll > 0 && line.[ll - 1] = '\r' then String.sub line 0 (ll - 1)
               else line
             in
             pos := nl + 1;
             on_line c line
       done
     with Queue.Empty ->
       (* response without a matching request: protocol desync; drop
          the connection rather than corrupt the tallies *)
       close_conn c)
  in
  let buf = Bytes.create 65536 in
  let by_fd = Hashtbl.create (2 * clients) in
  Array.iter (fun c -> Hashtbl.replace by_fd c.fd c) conns;
  let finished () =
    let now = Unix.gettimeofday () in
    (now >= deadline
    && Array.for_all
         (fun c -> c.closed || (Queue.is_empty c.starts && c.outbox = ""))
         conns)
    || now >= hard_stop
    || Array.for_all (fun c -> c.closed) conns
  in
  while not (finished ()) do
    let now = Unix.gettimeofday () in
    schedule now;
    let rds =
      Array.to_list conns
      |> List.filter_map (fun c -> if c.closed then None else Some c.fd)
    in
    let wrs =
      Array.to_list conns
      |> List.filter_map (fun c ->
             if (not c.closed) && c.outbox <> "" then Some c.fd else None)
    in
    if rds = [] && wrs = [] then ()
    else
      let rd, wr, _ =
        try Unix.select rds wrs [] 0.05
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun fd ->
          match Hashtbl.find_opt by_fd fd with
          | None -> ()
          | Some c when c.closed -> ()
          | Some c -> (
              try
                let n =
                  Unix.write_substring c.fd c.outbox 0 (String.length c.outbox)
                in
                c.outbox <- String.sub c.outbox n (String.length c.outbox - n)
              with
              | Unix.Unix_error
                  ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
              ->
                ()
              | Unix.Unix_error (_, _, _) -> close_conn c))
        wr;
      List.iter
        (fun fd ->
          match Hashtbl.find_opt by_fd fd with
          | None -> ()
          | Some c when c.closed -> ()
          | Some c -> (
              match Unix.read c.fd buf 0 (Bytes.length buf) with
              | 0 -> close_conn c
              | n -> feed c buf n
              | exception
                  Unix.Unix_error
                    ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
              ->
                ()
              | exception Unix.Unix_error (_, _, _) -> close_conn c))
        rd
  done;
  (* a retry still waiting out its backoff when the run ends was never
     resent: it is a shed request, not a completed one *)
  Array.iter
    (fun c ->
      match c.retry_at with
      | Some _ ->
          c.retry_at <- None;
          incr shed
      | None -> ())
    conns;
  let elapsed_ms = (Unix.gettimeofday () -. start) *. 1000.0 in
  let closed_early = Array.fold_left (fun a c -> if c.closed then a + 1 else a) 0 conns in
  Array.iter close_conn conns;
  let lat = Array.make !nlat 0.0 in
  List.iteri (fun i v -> lat.(i) <- v) !latencies;
  Array.sort compare lat;
  {
    clients;
    sent = !sent;
    completed = !completed;
    ok = !ok;
    hits = !hits;
    shed = !shed;
    retried = !retried;
    errors = !errors;
    closed_early;
    elapsed_ms;
    qps = (if elapsed_ms > 0.0 then float_of_int !ok /. (elapsed_ms /. 1000.0) else 0.0);
    p50_ms = Metrics.percentile lat 0.50;
    p99_ms = Metrics.percentile lat 0.99;
    max_ms = (if !nlat = 0 then 0.0 else lat.(!nlat - 1));
  }

module Client = struct
  type t = { fd : Unix.file_descr; inbuf : Buffer.t; mutable eof : bool }

  let connect ?(host = "127.0.0.1") ~port () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
       Unix.setsockopt fd Unix.TCP_NODELAY true
     with e ->
       (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
       raise e);
    { fd; inbuf = Buffer.create 1024; eof = false }

  let send t line =
    let data = line ^ "\n" in
    let n = String.length data in
    let off = ref 0 in
    while !off < n do
      match Unix.write_substring t.fd data !off (n - !off) with
      | w -> off := !off + w
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done

  (* Pop one complete line out of [inbuf], if present. *)
  let take_line t =
    let s = Buffer.contents t.inbuf in
    match String.index_opt s '\n' with
    | None -> None
    | Some nl ->
        Buffer.clear t.inbuf;
        Buffer.add_substring t.inbuf s (nl + 1) (String.length s - nl - 1);
        let line = String.sub s 0 nl in
        let ll = String.length line in
        Some
          (if ll > 0 && line.[ll - 1] = '\r' then String.sub line 0 (ll - 1)
           else line)

  let read_line t ~deadline =
    let buf = Bytes.create 8192 in
    let rec go () =
      match take_line t with
      | Some l -> l
      | None ->
          if t.eof then failwith "Loadgen.Client: connection closed by server";
          let remaining = deadline -. Unix.gettimeofday () in
          if remaining <= 0.0 then
            failwith "Loadgen.Client: timed out waiting for response";
          (match Unix.select [ t.fd ] [] [] remaining with
          | [], _, _ -> ()
          | _ -> (
              match Unix.read t.fd buf 0 (Bytes.length buf) with
              | 0 -> t.eof <- true
              | n -> Buffer.add_subbytes t.inbuf buf 0 n
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          go ()
    in
    go ()

  let read_response t =
    let deadline = Unix.gettimeofday () +. 10.0 in
    let rec go acc =
      let line = read_line t ~deadline in
      if line = "." then List.rev acc else go (line :: acc)
    in
    go []

  let request t line =
    send t line;
    read_response t

  let drain t n = List.init n (fun _ -> read_response t)

  let close t =
    if not t.eof then t.eof <- true;
    try Unix.close t.fd with Unix.Unix_error (_, _, _) -> ()
end
