(* The concurrent serving tier: the bounded MPMC queue and worker pool
   primitives, the shared line-protocol front end, and the TCP server
   itself — driven over real sockets with the blocking client and the
   load generator, including a ≥32-client stress run with catalog swaps
   happening under live traffic. *)

open Vplan
open Helpers

(* ------------------------------------------------------------------ *)
(* Bounded_queue                                                       *)

let queue_basics () =
  let q = Bounded_queue.create ~capacity:2 in
  check_int "capacity" 2 (Bounded_queue.capacity q);
  check_bool "push 1" true (Bounded_queue.try_push q 1);
  check_bool "push 2" true (Bounded_queue.try_push q 2);
  check_bool "full" false (Bounded_queue.try_push q 3);
  check_int "length" 2 (Bounded_queue.length q);
  (match Bounded_queue.try_pop q with
  | Some v -> check_int "fifo" 1 v
  | None -> Alcotest.fail "expected a value");
  check_bool "room again" true (Bounded_queue.try_push q 3);
  (match (Bounded_queue.try_pop q, Bounded_queue.try_pop q) with
  | Some a, Some b ->
      check_int "fifo 2" 2 a;
      check_int "fifo 3" 3 b
  | _ -> Alcotest.fail "expected two values");
  check_bool "empty" true (Bounded_queue.try_pop q = None);
  (match Bounded_queue.create ~capacity:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 must be rejected")

let queue_close () =
  let q = Bounded_queue.create ~capacity:4 in
  check_bool "push" true (Bounded_queue.push q 1);
  Bounded_queue.close q;
  check_bool "closed" true (Bounded_queue.is_closed q);
  check_bool "no push after close" false (Bounded_queue.try_push q 2);
  check_bool "blocking push after close" false (Bounded_queue.push q 2);
  check_bool "drain" true (Bounded_queue.pop q = Some 1);
  check_bool "drained" true (Bounded_queue.pop q = None)

(* Producers and consumers on separate domains: every pushed item is
   popped exactly once, blocking push/pop wake correctly, and close
   releases the consumers. *)
let queue_cross_domain () =
  let q = Bounded_queue.create ~capacity:8 in
  let n = 1000 in
  let consumers =
    Array.init 2 (fun _ ->
        Domain.spawn (fun () ->
            let sum = ref 0 in
            let count = ref 0 in
            let rec loop () =
              match Bounded_queue.pop q with
              | Some v ->
                  sum := !sum + v;
                  incr count;
                  loop ()
              | None -> (!sum, !count)
            in
            loop ()))
  in
  for i = 1 to n do
    ignore (Bounded_queue.push q i)
  done;
  Bounded_queue.close q;
  let totals = Array.map Domain.join consumers in
  let sum = Array.fold_left (fun a (s, _) -> a + s) 0 totals in
  let count = Array.fold_left (fun a (_, c) -> a + c) 0 totals in
  check_int "every item popped once" (n * (n + 1) / 2) sum;
  check_int "item count" n count

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)

let pool_runs_all () =
  let hits = Array.make 4 false in
  let p = Pool.spawn ~workers:4 (fun i -> hits.(i) <- true) in
  check_int "size" 4 (Pool.size p);
  Pool.join p;
  Array.iteri (fun i h -> check_bool (Printf.sprintf "worker %d ran" i) true h) hits

let pool_propagates_failure () =
  let p =
    Pool.spawn ~workers:3 (fun i -> if i = 1 then failwith "worker 1 boom")
  in
  match Pool.join p with
  | () -> Alcotest.fail "join must re-raise the worker failure"
  | exception Failure msg -> check_bool "message" true (msg = "worker 1 boom")

(* ------------------------------------------------------------------ *)
(* Protocol (in-process, no sockets)                                   *)

let write_views ~tag views =
  let file = Filename.temp_file ("vplan_test_" ^ tag) ".dl" in
  let oc = open_out file in
  List.iter (fun v -> Printf.fprintf oc "%s.\n" (Format.asprintf "%a" Query.pp v)) views;
  close_out oc;
  file

let load_catalog shared file =
  let boot = Protocol.new_session shared in
  let r = Protocol.handle_lines shared boot [ "catalog load " ^ file ] in
  if String.length r.Protocol.text < 2 || String.sub r.Protocol.text 0 2 <> "ok"
  then Alcotest.fail ("catalog load failed: " ^ r.Protocol.text)

let first_line (r : Protocol.reply) =
  match String.index_opt r.text '\n' with
  | Some i -> String.sub r.text 0 i
  | None -> r.text

let protocol_sessions_isolated () =
  let shared = Protocol.create_shared ~domains:1 () in
  let file = write_views ~tag:"proto" Car_loc_part.views in
  load_catalog shared file;
  let rewrite = "rewrite q1(S, C) :- car(M, anderson), loc(anderson, C), part(S, M, C)." in
  let a = Protocol.new_session shared in
  let b = Protocol.new_session shared in
  let r = Protocol.handle_lines shared a [ "set max-steps 1" ] in
  check_bool "set ok" true (first_line r = "ok max-steps=1");
  let ra = Protocol.handle_lines shared a [ rewrite ] in
  check_bool "a is budgeted (bypass)" true
    (first_line ra = "ok 0 bypass trace=1");
  (* the budget was session a's alone: b gets the full answer *)
  let rb = Protocol.handle_lines shared b [ rewrite ] in
  check_bool "b unaffected" true (first_line rb = "ok 1 miss trace=2");
  Sys.remove file

let protocol_extra_lines () =
  check_int "batch 3" 3 (Protocol.extra_lines "batch 3");
  check_int "batch  12" 12 (Protocol.extra_lines "batch  12");
  check_int "rewrite" 0 (Protocol.extra_lines "rewrite q(X) :- a(X).");
  check_int "malformed batch" 0 (Protocol.extra_lines "batch many")

(* A rewrite reply splices the rewritings from a cached template; it
   must read exactly as the [Format] rendering of [Service.rewrite]'s
   outcome for the same request: a miss, a renamed hit, a batch of two
   and a bypass (more than 24 existential variables: uncacheable). *)
let protocol_replies_match_format () =
  let shared = Protocol.create_shared ~domains:1 () in
  let file = write_views ~tag:"reply" Car_loc_part.views in
  load_catalog shared file;
  let sess = Protocol.new_session shared in
  let reference = Service.create (Catalog.create_exn Car_loc_part.views) in
  let trace = ref 0 in
  let expected source rules =
    String.concat ""
      (List.map
         (fun rule ->
           incr trace;
           let o = Service.rewrite reference (q rule) in
           Printf.sprintf "ok %d %s trace=%d\n" (List.length o.Service.rewritings) source !trace
           ^ format_lines o.Service.rewritings)
         rules)
  in
  let check what lines source rules =
    let want = expected source rules in
    Alcotest.(check string) what want (Protocol.handle_lines shared sess lines).Protocol.text
  in
  let query = "q1(S, C) :- car(M, anderson), loc(anderson, C), part(S, M, C)." in
  let renamed = "q1(V1, V0) :- part(V1, V2, V0), loc(anderson, V0), car(V2, anderson)." in
  let other = "q1(A, B) :- car(M, anderson), loc(anderson, B), part(A, M, B)." in
  let fresh = "q(S, M) :- part(S, M, C)." in
  let uncacheable =
    "q1(S, C) :- car(M, anderson), loc(anderson, C), part(S, M, C), "
    ^ String.concat ", " (List.init 25 (Printf.sprintf "car(V%d, anderson)"))
    ^ "."
  in
  check "miss" [ "rewrite " ^ query ] "miss" [ query ];
  check "renamed hit" [ "rewrite " ^ renamed ] "hit" [ renamed ];
  let hit = expected "hit" [ other ] in
  let want = hit ^ expected "miss" [ fresh ] in
  Alcotest.(check string)
    "batch of two" want
    (Protocol.handle_lines shared sess [ "batch 2"; other; fresh ]).Protocol.text;
  check "bypass" [ "rewrite " ^ uncacheable ] "bypass" [ uncacheable ];
  Sys.remove file

(* [n] unary subgoals over p1..pn, against a catalog with one view per
   pair of them: every perfect matching of the subgoals is a minimal
   rewriting, so n = 8 answers 105 lines (about 20 KB) and n = 10 answers
   945 (about 230 KB).  [name] spells the variables, so two spellings of
   one [n] are isomorphic. *)
let pair_views =
  List.concat
    (List.init 10 (fun i ->
         List.init (9 - i) (fun d ->
             let i = i + 1 in
             let j = i + d + 1 in
             q (Printf.sprintf "w%d_%d(A, B) :- p%d(A), p%d(B)." i j i j))))

let pairs_query ?(name = Printf.sprintf "Variable%d") n =
  let vars = List.init n (fun i -> name (i + 1)) in
  Printf.sprintf "q(%s) :- %s." (String.concat ", " vars)
    (String.concat ", " (List.mapi (fun i x -> Printf.sprintf "p%d(%s)" (i + 1) x) vars))

(* The recorder's label comes from the cache entry, classified once on
   the canonical query; a hit must still carry the caller's class. *)
let protocol_hit_classification () =
  let triangle = q "e(A, B) :- edge(A, B)." in
  let shared = Protocol.create_shared ~domains:1 () in
  let file = write_views ~tag:"class" (triangle :: Car_loc_part.views) in
  load_catalog shared file;
  let sess = Protocol.new_session shared in
  let label rule =
    match Hypergraph.classify (q rule).Query.body with
    | Hypergraph.Acyclic _ -> "acyclic"
    | Hypergraph.Cyclic -> "cyclic"
  in
  let hit_class rule =
    let line = first_line (Protocol.handle_lines shared sess [ "rewrite " ^ rule ]) in
    match Scanf.sscanf_opt line "ok %d hit trace=%d" (fun _ t -> t) with
    | None -> Alcotest.failf "expected a hit, got %s" line
    | Some trace -> (
        match Recorder.find_trace trace with
        | Some r -> r.Recorder.classification
        | None -> Alcotest.failf "trace %d not recorded" trace)
  in
  List.iter
    (fun (miss, hit, want) ->
      ignore (Protocol.handle_lines shared sess [ "rewrite " ^ miss ]);
      Alcotest.(check string) (want ^ " label") want (label hit);
      Alcotest.(check string) (want ^ " hit") want (hit_class hit))
    [
      ( "q1(S, C) :- car(M, anderson), loc(anderson, C), part(S, M, C).",
        "q1(P, K) :- part(P, N, K), loc(anderson, K), car(N, anderson).",
        "acyclic" );
      ( "t(X, Y, Z) :- edge(X, Y), edge(Y, Z), edge(Z, X).",
        "t(B, C, A) :- edge(A, B), edge(C, A), edge(B, C).",
        "cyclic" );
    ];
  Sys.remove file

let protocol_contains_sub () =
  let yes what s sub = check_bool what true (Protocol.contains_sub s sub) in
  let no what s sub = check_bool what false (Protocol.contains_sub s sub) in
  yes "empty needle" "kind=rewrite" "";
  yes "empty needle, empty haystack" "" "";
  yes "match at the start" "kind=rewrite" "kind";
  yes "match at the end" "kind=rewrite" "rewrite";
  yes "whole string" "rewrite" "rewrite";
  no "no match" "kind=rewrite" "plan";
  no "needle runs past the end" "kind=rewrite" "rewrites";
  no "longer than the haystack" "ab" "abc";
  no "empty haystack" "" "a"

(* A hit through the retained-buffer path allocates nothing the size of
   its reply: the reply is rendered into the caller's buffer and framed
   in place.  Words allocated straight into the major heap (blocks over
   256 words, which the minor heap never takes) are [major - promoted];
   a copy of the ~20 KB reply alone would be about 2.5k of them. *)
let protocol_hit_allocation () =
  let shared = Protocol.create_shared ~domains:1 () in
  let file = write_views ~tag:"alloc" pair_views in
  load_catalog shared file;
  let sess = Protocol.new_session shared in
  let buf = Net_server.reply_buffer () in
  let lines = [ "rewrite " ^ pairs_query 8 ] in
  let serve () =
    ignore (Protocol.handle_lines_into shared sess buf lines);
    Net_server.frame buf;
    let n = Buffer.length buf in
    Net_server.recycle buf;
    n
  in
  (* the miss, then one hit to grow the retained buffers *)
  ignore (serve ());
  let size = serve () in
  check_bool "reply over 2 KB" true (size > 2048);
  let hits = 100 in
  let _, promoted0, major0 = Gc.counters () in
  for _ = 1 to hits do
    ignore (serve ())
  done;
  let _, promoted1, major1 = Gc.counters () in
  let direct = (major1 -. major0 -. (promoted1 -. promoted0)) /. float_of_int hits in
  if direct >= 256. then
    Alcotest.failf "%.0f direct-major words per hit (reply %d bytes)" direct size;
  Sys.remove file

(* ------------------------------------------------------------------ *)
(* Net_server fixtures                                                 *)

(* A protocol-backed TCP server on an ephemeral port, torn down (with
   drain) even if the test body fails. *)
let with_protocol_server ?(workers = 2) ?(queue = 64) ?max_requests ~views f =
  let shared = Protocol.create_shared ~domains:1 () in
  let file = write_views ~tag:"srv" views in
  load_catalog shared file;
  let handler () = Protocol.handle_lines_into shared (Protocol.new_session shared) in
  let srv =
    Net_server.create ~workers ~queue_capacity:queue ?max_requests
      ~extra_lines:Protocol.extra_lines ~handler ()
  in
  let d = Domain.spawn (fun () -> Net_server.run srv) in
  Fun.protect
    ~finally:(fun () ->
      Net_server.stop srv;
      Domain.join d;
      Sys.remove file)
    (fun () -> f (Net_server.port srv) shared)

let rewrite_line = "rewrite q1(S, C) :- car(M, anderson), loc(anderson, C), part(S, M, C)."
let v4_answer = "q1(S,C) :- v4(M,anderson,C,S)"

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let server_roundtrip () =
  with_protocol_server ~views:Car_loc_part.views (fun port _shared ->
      let c = Loadgen.Client.connect ~port () in
      (match Loadgen.Client.request c rewrite_line with
      | [ l1; l2 ] ->
          check_bool "miss" true (starts_with "ok 1 miss" l1);
          check_bool "answer" true (l2 = v4_answer)
      | other ->
          Alcotest.failf "unexpected response: %s" (String.concat " | " other));
      (* an isomorphic resubmission from another connection is a hit *)
      let c2 = Loadgen.Client.connect ~port () in
      (match
         Loadgen.Client.request c2
           "rewrite q1(P, K) :- part(P, N, K), loc(anderson, K), car(N, anderson)."
       with
      | l1 :: _ -> check_bool "hit" true (starts_with "ok 1 hit" l1)
      | [] -> Alcotest.fail "empty response");
      (* batch requests are framed across multiple lines *)
      (match
         Loadgen.Client.request c
           "batch 2\nq1(A, B) :- car(N, anderson), loc(anderson, B), part(A, N, B).\nq1(P, K) :- part(P, N, K), loc(anderson, K), car(N, anderson)."
       with
      | l :: rest ->
          check_bool "batch first hit" true (starts_with "ok 1 hit" l);
          check_int "batch yields two answers" 3 (List.length rest)
      | [] -> Alcotest.fail "empty batch response");
      (* quit closes the connection after an empty reply *)
      check_bool "quit reply empty" true (Loadgen.Client.request c "quit" = []);
      Loadgen.Client.close c;
      Loadgen.Client.close c2)

(* A client vanishing mid-conversation must not take the server (or any
   other client) with it. *)
let server_survives_disconnect () =
  with_protocol_server ~views:Car_loc_part.views (fun port _shared ->
      for _ = 1 to 5 do
        let c = Loadgen.Client.connect ~port () in
        Loadgen.Client.send c rewrite_line;
        (* close without reading the response *)
        Loadgen.Client.close c
      done;
      let c = Loadgen.Client.connect ~port () in
      (match Loadgen.Client.request c rewrite_line with
      | l :: _ -> check_bool "still serving" true (starts_with "ok 1" l)
      | [] -> Alcotest.fail "empty response");
      Loadgen.Client.close c)

(* An explain traces only its own request.  One connection streams
   rewrite misses (distinct heads) while another sends explains that
   miss too, so the two workers run CoreCover side by side; every
   explain's tree must be its own miss alone: one top-level corecover
   span and the span count an explain has on an idle server. *)
let server_explain_traces_own_request () =
  with_protocol_server ~workers:2 ~views:Car_loc_part.views (fun port _shared ->
      let body = "car(M, anderson), loc(anderson, C), part(S, M, C)." in
      let c = Loadgen.Client.connect ~port () in
      let explain i =
        match Loadgen.Client.request c (Printf.sprintf "explain e%d(S, C) :- %s" i body) with
        | first :: lines ->
            let spans =
              match List.rev (String.split_on_char ' ' first) with
              | last :: _ when starts_with "spans=" last ->
                  int_of_string (String.sub last 6 (String.length last - 6))
              | _ -> Alcotest.failf "no span count in %S" first
            in
            let top_level =
              List.filter_map
                (fun l ->
                  if starts_with "`- " l || starts_with "|- " l then
                    Some (List.hd (String.split_on_char ' ' (String.sub l 3 (String.length l - 3))))
                  else None)
                lines
            in
            (spans, top_level)
        | [] -> Alcotest.fail "empty explain reply"
      in
      let alone, alone_top = explain 0 in
      check_bool "an idle explain traces one corecover" true (alone_top = [ "corecover" ]);
      let stop = Atomic.make false and streamed = Atomic.make 0 in
      let streamer =
        Domain.spawn (fun () ->
            let s = Loadgen.Client.connect ~port () in
            while not (Atomic.get stop) do
              let i = Atomic.fetch_and_add streamed 1 in
              ignore (Loadgen.Client.request s (Printf.sprintf "rewrite r%d(S, C) :- %s" i body))
            done;
            Loadgen.Client.close s)
      in
      let wrong =
        Fun.protect
          ~finally:(fun () ->
            Atomic.set stop true;
            Domain.join streamer)
          (fun () ->
            while Atomic.get streamed = 0 do
              Domain.cpu_relax ()
            done;
            List.filter
              (fun i -> explain i <> (alone, [ "corecover" ]))
              (List.init 200 (fun i -> i + 1)))
      in
      Loadgen.Client.close c;
      check_int "explains that saw another request's spans" 0 (List.length wrong);
      check_bool "the stream ran alongside" true (Atomic.get streamed > 1))

(* A raw client: the exact bytes the server writes, terminators
   included. *)
let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  fd

(* Send one request line, then read until [len] bytes have arrived or
   the server closes. *)
let raw_exchange fd request len =
  let line = request ^ "\n" in
  ignore (Unix.write_substring fd line 0 (String.length line));
  let got = Bytes.create len in
  let rec go off =
    if off = len then off
    else match Unix.read fd got off (len - off) with 0 -> off | n -> go (off + n)
  in
  Bytes.sub_string got 0 (go 0)

let framed text =
  let buf = Buffer.create 16 in
  Buffer.add_string buf text;
  Net_server.frame buf;
  Buffer.contents buf

(* Each reply on the wire is [frame] of what [Protocol.handle_lines]
   answers a reference server fed the same requests.  One worker serves
   every request from one retained buffer: a reply over 100 KB (more
   than the buffer's initial size and the 64 KiB write chunk), then
   shorter ones, so a stale byte of an earlier reply would show.  [quit]
   answers the empty body. *)
let server_large_then_short () =
  with_protocol_server ~workers:1 ~views:pair_views (fun port _shared ->
      let reference = Protocol.create_shared ~domains:1 () in
      let file = write_views ~tag:"ref" pair_views in
      load_catalog reference file;
      let rsess = Protocol.new_session reference in
      let fd = raw_connect port in
      let big = "rewrite " ^ pairs_query 10 in
      List.iter
        (fun request ->
          let want = framed (Protocol.handle_lines reference rsess [ request ]).Protocol.text in
          if request == big then check_bool "reply over 100 KB" true (String.length want > 100_000);
          Alcotest.(check string) request want (raw_exchange fd request (String.length want)))
        [
          big;
          "rewrite " ^ pairs_query 2;
          "rewrite " ^ pairs_query ~name:(Printf.sprintf "Y%d") 10;
          "health";
          "quit";
        ];
      check_bool "closed after quit" true (Unix.read fd (Bytes.create 1) 0 1 = 0);
      Unix.close fd;
      Sys.remove file)

(* A bare [Net_server] whose request function writes the bodies the
   framing and fault rules are about, from one worker. *)
let filler = String.make 999 'x' ^ "\n"

let with_body_server f =
  let handler () buf = function
    | [ "empty" ] -> false
    | [ "bare" ] ->
        Buffer.add_string buf "no newline";
        false
    | [ "lines"; n ] ->
        for _ = 1 to int_of_string n do
          Buffer.add_string buf filler
        done;
        false
    | [ "boom" ] ->
        Buffer.add_string buf "partial output\n";
        failwith "boom"
    | _ ->
        Buffer.add_string buf "ok\n";
        false
  in
  let extra_lines l = if String.starts_with ~prefix:"lines" l then 1 else 0 in
  let srv = Net_server.create ~workers:1 ~extra_lines ~handler () in
  let d = Domain.spawn (fun () -> Net_server.run srv) in
  Fun.protect
    ~finally:(fun () ->
      Net_server.stop srv;
      Domain.join d)
    (fun () -> f (Net_server.port srv))

(* An empty body is framed as ".", an unterminated one gains its
   newline; a 2 MB reply (past the 1 MiB ceiling, so the buffer drops
   back to its initial size) is followed by a short one. *)
let server_framing () =
  with_body_server (fun port ->
      let fd = raw_connect port in
      let lines n = String.concat "" (List.init n (fun _ -> filler)) in
      List.iter
        (fun (request, body) ->
          let want = framed body in
          Alcotest.(check string) request want (raw_exchange fd request (String.length want)))
        [
          ("lines\n120", lines 120);
          ("bare", "no newline");
          ("empty", "");
          ("lines\n2100", lines 2100);
          ("ok", "ok\n");
          ("bare", "no newline");
        ];
      Unix.close fd)

(* A request function that writes part of a reply and then raises: the
   wire carries exactly the internal error, and the connection's next
   request is answered cleanly. *)
let server_handler_raises () =
  with_body_server (fun port ->
      let fd = raw_connect port in
      let want = "err internal: Failure(\"boom\")\n.\n" in
      Alcotest.(check string) "error only" want (raw_exchange fd "boom" (String.length want));
      Alcotest.(check string) "next is clean" "ok\n.\n" (raw_exchange fd "ok" 5);
      Unix.close fd)

(* Per-connection request budget: the budget is the connection's, not
   the process's — a fresh connection starts fresh. *)
let server_request_budget () =
  with_protocol_server ~max_requests:3 ~views:Car_loc_part.views
    (fun port _shared ->
      let a = Loadgen.Client.connect ~port () in
      for i = 1 to 3 do
        match Loadgen.Client.request a rewrite_line with
        | l :: _ ->
            check_bool (Printf.sprintf "a request %d ok" i) true
              (starts_with "ok 1" l)
        | [] -> Alcotest.fail "empty response"
      done;
      (match Loadgen.Client.request a rewrite_line with
      | [ l ] -> check_bool "budget error" true (l = "err request budget exhausted")
      | other ->
          Alcotest.failf "unexpected budget response: %s"
            (String.concat " | " other));
      (* the connection is then closed by the server *)
      (match Loadgen.Client.request a rewrite_line with
      | exception (Failure _ | Unix.Unix_error (_, _, _)) -> ()
      | _ -> Alcotest.fail "connection should be closed after budget");
      Loadgen.Client.close a;
      let b = Loadgen.Client.connect ~port () in
      (match Loadgen.Client.request b rewrite_line with
      | l :: _ -> check_bool "b starts fresh" true (starts_with "ok 1" l)
      | [] -> Alcotest.fail "empty response");
      Loadgen.Client.close b)

(* Admission control: one worker occupied, a queue of one full — the
   next requests must shed with "err busy" immediately rather than
   queue behind the stall. *)
let server_sheds_when_full () =
  let gate = Atomic.make false in
  let handler () =
   fun buf lines ->
    (match lines with
    | [ "slow" ] ->
        let rec wait () = if not (Atomic.get gate) then (Unix.sleepf 0.005; wait ()) in
        wait ()
    | _ -> ());
    Buffer.add_string buf "ok done\n";
    false
  in
  let srv = Net_server.create ~workers:1 ~queue_capacity:1 ~handler () in
  let d = Domain.spawn (fun () -> Net_server.run srv) in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set gate true;
      Net_server.stop srv;
      Domain.join d)
    (fun () ->
      let port = Net_server.port srv in
      let shed0 = Metrics.value (Metrics.counter "vplan_requests_shed_total") in
      let c1 = Loadgen.Client.connect ~port () in
      Loadgen.Client.send c1 "slow";
      Unix.sleepf 0.15;
      (* worker is now parked in the handler; fill the queue *)
      let c2 = Loadgen.Client.connect ~port () in
      Loadgen.Client.send c2 "slow";
      Unix.sleepf 0.15;
      (* queue full: these must be shed, and fast *)
      let shed =
        List.init 3 (fun _ ->
            let c = Loadgen.Client.connect ~port () in
            let r = Loadgen.Client.request c "fast" in
            Loadgen.Client.close c;
            r)
      in
      List.iteri
        (fun i r ->
          check_bool (Printf.sprintf "shed %d" i) true (r = [ "err busy" ]))
        shed;
      let shed1 = Metrics.value (Metrics.counter "vplan_requests_shed_total") in
      check_bool "shed counter moved" true (shed1 - shed0 >= 3);
      (* open the gate: the parked requests complete normally *)
      Atomic.set gate true;
      check_bool "c1 served" true
        (Loadgen.Client.drain c1 1 = [ [ "ok done" ] ]);
      check_bool "c2 served" true
        (Loadgen.Client.drain c2 1 = [ [ "ok done" ] ]);
      Loadgen.Client.close c1;
      Loadgen.Client.close c2)

(* ------------------------------------------------------------------ *)
(* Stress: ≥32 concurrent clients, catalog swaps under live traffic    *)

(* 32 loadgen connections hammer rewrites while a control connection
   swaps the catalog back and forth between one with v4 (best answer
   uses v4 alone) and one without (best answer joins v1 and v2).  Every
   response must be one of the two complete answers — a torn result
   (half a catalog, a cache entry from the wrong generation) would show
   up as any other body — and the generation-resets counter must count
   exactly the swaps. *)
let server_stress_swap () =
  with_protocol_server ~workers:2 ~queue:256 ~views:Car_loc_part.views
    (fun port _shared ->
      let with_v4 = write_views ~tag:"swap_a" Car_loc_part.views in
      let without_v4 =
        write_views ~tag:"swap_b"
          Car_loc_part.[ v1; v2; v3; v5 ]
      in
      let swaps = 6 in
      let control =
        Domain.spawn (fun () ->
            let c = Loadgen.Client.connect ~port () in
            let ok = ref 0 in
            for i = 1 to swaps do
              let file = if i mod 2 = 0 then with_v4 else without_v4 in
              (match Loadgen.Client.request c ("catalog load " ^ file) with
              | l :: _ when starts_with "ok catalog" l -> incr ok
              | _ -> ());
              (match Loadgen.Client.request c "stats" with
              | l :: _ when starts_with "generation=" l -> ()
              | _ -> ());
              Unix.sleepf 0.05
            done;
            Loadgen.Client.close c;
            !ok)
      in
      (* collectors: 4 checker connections record full response bodies *)
      let checker =
        Domain.spawn (fun () ->
            let cs = List.init 4 (fun _ -> Loadgen.Client.connect ~port ()) in
            let bad = ref [] in
            for _ = 1 to 12 do
              List.iter
                (fun c ->
                  match Loadgen.Client.request c rewrite_line with
                  | [ l1; l2 ]
                    when starts_with "ok 1" l1
                         && (l2 = v4_answer
                            || l2 = "q1(S,C) :- v1(M,anderson,C), v2(S,M,C)") ->
                      ()
                  | other -> bad := String.concat " | " other :: !bad)
                cs
            done;
            List.iter Loadgen.Client.close cs;
            !bad)
      in
      let res =
        Loadgen.run ~port ~clients:32 ~duration_ms:600.0
          ~request:(fun ~client:_ ~seq:_ -> rewrite_line)
          ()
      in
      let control_ok = Domain.join control in
      let bad = Domain.join checker in
      check_int "all swaps applied" swaps control_ok;
      check_bool "no torn results" true (bad = []);
      check_int "loadgen saw no protocol errors" 0 res.Loadgen.errors;
      check_int "no loadgen connection died" 0 res.Loadgen.closed_early;
      check_bool "traffic actually flowed" true (res.Loadgen.ok > 100);
      check_bool "every request answered" true
        (res.Loadgen.completed = res.Loadgen.sent);
      (* the service counted exactly the control connection's swaps *)
      (match Protocol.service _shared with
      | None -> Alcotest.fail "service vanished"
      | Some s ->
          check_int "generation resets" swaps (Service.stats s).Service.generation_resets);
      Sys.remove with_v4;
      Sys.remove without_v4)

(* A control connection adds and removes a copy of v4, then removes v4
   itself and adds it back, while checker connections rewrite the
   car-loc-part query: every reply is one of the two complete answers.
   The cached rewriting survives the copy's add and remove (the control
   connection's own rewrites after them are hits), and no mutation
   counts as a generation reset. *)
let server_churn_keeps_hits () =
  with_protocol_server ~workers:2 ~queue:64 ~views:Car_loc_part.views (fun port shared ->
      let v1v2 = "q1(S,C) :- v1(M,anderson,C), v2(S,M,C)" in
      let valid = function
        | [ l1; l2 ] -> starts_with "ok 1 " l1 && (l2 = v4_answer || l2 = v1v2)
        | _ -> false
      in
      let rounds = 4 in
      let done_ = Atomic.make false in
      let control =
        Domain.spawn (fun () ->
            let c = Loadgen.Client.connect ~port () in
            let bad = ref [] in
            let expect what ok lines =
              if not (ok lines) then
                bad := (what ^ ": " ^ String.concat " | " lines) :: !bad
            in
            let catalog line =
              expect line (function l :: _ -> starts_with "ok catalog" l | [] -> false)
                (Loadgen.Client.request c line)
            in
            let rewrite what ok = expect what ok (Loadgen.Client.request c rewrite_line) in
            let hit = function
              | [ l1; l2 ] -> starts_with "ok 1 hit" l1 && l2 = v4_answer
              | _ -> false
            in
            for _ = 1 to rounds do
              rewrite "warm" (function [ _; l2 ] -> l2 = v4_answer | _ -> false);
              catalog "catalog add v4c(M, D, C, S) :- car(M, D), loc(D, C), part(S, M, C).";
              rewrite "after adding the copy" hit;
              catalog "catalog remove v4c";
              rewrite "after removing the copy" hit;
              catalog "catalog remove v4";
              rewrite "without v4" (function [ _; l2 ] -> l2 = v1v2 | _ -> false);
              catalog "catalog add v4(M, D, C, S) :- car(M, D), loc(D, C), part(S, M, C).";
              Unix.sleepf 0.02
            done;
            Atomic.set done_ true;
            Loadgen.Client.close c;
            !bad)
      in
      let checker =
        Domain.spawn (fun () ->
            let cs = List.init 4 (fun _ -> Loadgen.Client.connect ~port ()) in
            let bad = ref [] and seen = ref 0 in
            while not (Atomic.get done_) do
              List.iter
                (fun c ->
                  let r = Loadgen.Client.request c rewrite_line in
                  incr seen;
                  if not (valid r) then bad := String.concat " | " r :: !bad)
                cs
            done;
            List.iter Loadgen.Client.close cs;
            (!bad, !seen))
      in
      let control_bad = Domain.join control in
      let bad, seen = Domain.join checker in
      Alcotest.(check (list string)) "control replies" [] control_bad;
      Alcotest.(check (list string)) "checker replies" [] bad;
      check_bool "checkers were served" true (seen > 0);
      match Protocol.service shared with
      | None -> Alcotest.fail "service vanished"
      | Some s ->
          check_int "no generation reset" 0 (Service.stats s).Service.generation_resets)

let suite =
  [
    Alcotest.test_case "bounded queue: fifo, capacity, try ops" `Quick queue_basics;
    Alcotest.test_case "bounded queue: close semantics" `Quick queue_close;
    Alcotest.test_case "bounded queue: cross-domain producers/consumers" `Quick
      queue_cross_domain;
    Alcotest.test_case "pool: runs every worker" `Quick pool_runs_all;
    Alcotest.test_case "pool: join re-raises worker failure" `Quick
      pool_propagates_failure;
    Alcotest.test_case "protocol: per-session budgets are isolated" `Quick
      protocol_sessions_isolated;
    Alcotest.test_case "protocol: multi-line framing hints" `Quick
      protocol_extra_lines;
    Alcotest.test_case "protocol: rewrite replies = Format of the outcome" `Quick
      protocol_replies_match_format;
    Alcotest.test_case "protocol: a hit's recorder class is the caller's" `Quick
      protocol_hit_classification;
    Alcotest.test_case "protocol: contains_sub compares in place" `Quick
      protocol_contains_sub;
    Alcotest.test_case "protocol: a hit allocates no reply-sized block" `Quick
      protocol_hit_allocation;
    Alcotest.test_case "tcp: roundtrip, hit attribution, batch, quit" `Quick
      server_roundtrip;
    Alcotest.test_case "tcp: large reply then short ones = frame of handle_lines"
      `Quick server_large_then_short;
    Alcotest.test_case "tcp: empty, unterminated and oversized bodies" `Quick
      server_framing;
    Alcotest.test_case "tcp: a raising handler yields only err internal" `Quick
      server_handler_raises;
    Alcotest.test_case "tcp: client disconnect is contained" `Quick
      server_survives_disconnect;
    Alcotest.test_case "tcp: explain traces only its own request" `Quick
      server_explain_traces_own_request;
    Alcotest.test_case "tcp: per-connection request budget" `Quick
      server_request_budget;
    Alcotest.test_case "tcp: admission control sheds when saturated" `Quick
      server_sheds_when_full;
    Alcotest.test_case "tcp: 32-client stress with catalog swaps" `Slow
      server_stress_swap;
    Alcotest.test_case "tcp: catalog churn keeps hits, replies stay valid" `Quick
      server_churn_keeps_hits;
  ]
