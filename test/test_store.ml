(* The durability layer: codec roundtrips, journal torn-tail recovery,
   snapshot atomicity, degraded-mode serving, and the crash matrix —
   one child server per (failpoint site, occurrence), killed mid-write,
   whose recovered state must be the acked prefix. *)

open Vplan
open Helpers

let temp_dir () =
  let d = Filename.temp_file "vplan_store_test" "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_temp_dir f =
  let d = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what e

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)

let codec_roundtrip () =
  let b = Buffer.create 64 in
  Codec.put_u8 b 0;
  Codec.put_u8 b 255;
  Codec.put_u32 b 0;
  Codec.put_u32 b 0xFFFF_FFFF;
  Codec.put_u63 b 0;
  Codec.put_u63 b max_int;
  Codec.put_i63 b min_int;
  Codec.put_i63 b (-1);
  Codec.put_i63 b max_int;
  Codec.put_string b "";
  Codec.put_string b "hello\nworld\x00\xff";
  Codec.put_list Codec.put_u8 b [ 1; 2; 3 ];
  let r = Codec.reader (Buffer.contents b) in
  let get what = function
    | Ok v -> v
    | Error e -> Alcotest.failf "%s: %s" what e
  in
  check_int "u8 min" 0 (get "u8" (Codec.get_u8 r));
  check_int "u8 max" 255 (get "u8" (Codec.get_u8 r));
  check_int "u32 min" 0 (get "u32" (Codec.get_u32 r));
  check_int "u32 max" 0xFFFF_FFFF (get "u32" (Codec.get_u32 r));
  check_int "u63 min" 0 (get "u63" (Codec.get_u63 r));
  check_int "u63 max" max_int (get "u63" (Codec.get_u63 r));
  check_int "i63 min_int" min_int (get "i63" (Codec.get_i63 r));
  check_int "i63 -1" (-1) (get "i63" (Codec.get_i63 r));
  check_int "i63 max_int" max_int (get "i63" (Codec.get_i63 r));
  Alcotest.(check string) "empty string" "" (get "str" (Codec.get_string r));
  Alcotest.(check string)
    "binary string" "hello\nworld\x00\xff"
    (get "str" (Codec.get_string r));
  Alcotest.(check (list int))
    "list" [ 1; 2; 3 ]
    (get "list" (Codec.get_list Codec.get_u8 r));
  ok_exn "expect_end" (Codec.expect_end r);
  (* short reads are errors, not exceptions *)
  check_bool "short u32" true
    (Result.is_error (Codec.get_u32 (Codec.reader "\x00\x01")));
  check_bool "trailing bytes rejected" true
    (Result.is_error (Codec.expect_end (Codec.reader "\x00")))

let record_roundtrip () =
  let roundtrip op =
    let b = Buffer.create 64 in
    Record.put_op b op;
    let r = Codec.reader (Buffer.contents b) in
    let decoded = ok_exn "get_op" (Record.get_op r) in
    check_bool
      (Format.asprintf "roundtrip %a" Record.pp_op op)
      true (decoded = op);
    ok_exn "record end" (Codec.expect_end r)
  in
  roundtrip (Record.Add_view "v1(X, Y) :- car(X, Y).");
  roundtrip (Record.Remove_view "v1");
  roundtrip (Record.Load_data []);
  roundtrip
    (Record.Load_data
       [
         ("car", [ Term.Str "honda"; Term.Str "anderson" ]);
         ("n", [ Term.Int 0; Term.Int (-1); Term.Int max_int; Term.Int min_int ]);
       ])

(* ------------------------------------------------------------------ *)
(* Snapshot: QCheck roundtrip + corruption detection                   *)

module Gen = QCheck2.Gen

let gen_const =
  Gen.oneof
    [
      Gen.map (fun i -> Term.Int i) Gen.int;
      Gen.map (fun s -> Term.Str s) (Gen.string_size (Gen.int_range 0 6));
    ]

let gen_fact =
  let open Gen in
  let* pred = string_size (int_range 1 6) in
  let* args = list_size (int_range 0 3) gen_const in
  return (pred, args)

let gen_histogram =
  let open Gen in
  let* lo = int_range (-100) 100 in
  let* width = int_range 1 50 in
  let* counts = list_size (int_range 1 8) (int_range 0 1000) in
  let* total = int_range 0 10_000 in
  return { Vplan_stats.Histogram.lo; width; counts = Array.of_list counts; total }

let gen_table =
  let open Gen in
  let* name = string_size (int_range 1 6) in
  let* card = int_range 0 100_000 in
  let* columns =
    list_size (int_range 0 4)
      (let* distinct = int_range 0 1000 in
       let* hist = opt gen_histogram in
       return { Vplan_stats.Stats.distinct; hist })
  in
  return (name, { Vplan_stats.Stats.card; columns = Array.of_list columns })

(* Codec-level randomness: view "texts" are arbitrary bytes — the
   framing must not care whether they parse as rules. *)
let gen_snapshot =
  let open Gen in
  let* seq = int_range 0 1_000_000 in
  let* generation = int_range 1 10_000 in
  let* views = list_size (int_range 0 8) (string_size (int_range 0 24)) in
  let nviews = List.length views in
  let* classes =
    if nviews = 0 then return []
    else
      list_size (int_range 0 4)
        (let* signature = string_size (int_range 0 16) in
         let* members =
           list_size (int_range 0 nviews) (int_range 0 (nviews - 1))
         in
         return (signature, members))
  in
  let* base = opt (list_size (int_range 0 5) gen_fact) in
  let* stats = opt (list_size (int_range 0 3) gen_table) in
  return { Snapshot.seq; generation; views; classes; base; stats }

let snapshot_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"snapshot encode/decode roundtrip"
       gen_snapshot (fun s ->
         match Snapshot.decode (Snapshot.encode s) with
         | Ok s' -> s' = s
         | Error e -> QCheck2.Test.fail_reportf "decode failed: %s" e))

let snapshot_corruption_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"snapshot decode rejects any flipped bit"
       Gen.(triple gen_snapshot small_nat small_nat)
       (fun (s, at, bit) ->
         let data = Bytes.of_string (Snapshot.encode s) in
         let at = at mod Bytes.length data in
         let bit = bit mod 8 in
         Bytes.set data at
           (Char.chr (Char.code (Bytes.get data at) lxor (1 lsl bit)));
         match Snapshot.decode (Bytes.to_string data) with
         | Error _ -> true
         | Ok _ -> QCheck2.Test.fail_report "corrupt snapshot decoded"))

let snapshot_atomic_write () =
  with_temp_dir (fun dir ->
      let s1 =
        {
          Snapshot.seq = 3;
          generation = 2;
          views = [ "v1(X) :- p(X)." ];
          classes = [ ("sig1", [ 0 ]) ];
          base = Some [ ("p", [ Term.Str "a" ]) ];
          stats = None;
        }
      in
      ok_exn "write 1" (Snapshot.write ~dir ~file:"s.vps" s1);
      let s2 = { s1 with Snapshot.seq = 9; views = []; classes = [] } in
      ok_exn "write 2" (Snapshot.write ~dir ~file:"s.vps" s2);
      (match Snapshot.read (Filename.concat dir "s.vps") with
      | Ok (Some got) -> check_bool "latest snapshot wins" true (got = s2)
      | Ok None -> Alcotest.fail "snapshot missing"
      | Error e -> Alcotest.failf "read: %s" e);
      (* no temp residue after a successful replace *)
      check_bool "no tmp file left" true
        (Array.for_all
           (fun f -> not (Filename.check_suffix f ".tmp"))
           (Sys.readdir dir));
      match Snapshot.read (Filename.concat dir "absent.vps") with
      | Ok None -> ()
      | Ok (Some _) -> Alcotest.fail "phantom snapshot"
      | Error e -> Alcotest.failf "missing file must be Ok None: %s" e)

(* ------------------------------------------------------------------ *)
(* Journal: append/replay and torn-tail truncation                     *)

let journal_ops =
  [
    (1, Record.Add_view "v1(X) :- p(X).");
    (2, Record.Add_view "v2(X, Y) :- q(X, Y).");
    (3, Record.Remove_view "v1");
    (4, Record.Load_data [ ("p", [ Term.Int 42 ]) ]);
  ]

let journal_roundtrip () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "j.vpj" in
      (* a missing journal is an empty journal *)
      let r0 = ok_exn "replay missing" (Journal.replay path) in
      check_int "missing: no records" 0 (List.length r0.Journal.records);
      let j = ok_exn "open" (Journal.open_append path) in
      List.iter
        (fun (seq, op) -> ok_exn "append" (Journal.append j ~seq op))
        journal_ops;
      Journal.close j;
      let r = ok_exn "replay" (Journal.replay path) in
      check_bool "records roundtrip" true (r.Journal.records = journal_ops);
      check_int "no torn tail" r.Journal.total_bytes r.Journal.valid_bytes)

let journal_torn_tail () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "j.vpj" in
      let j = ok_exn "open" (Journal.open_append path) in
      List.iter
        (fun (seq, op) -> ok_exn "append" (Journal.append j ~seq op))
        journal_ops;
      Journal.close j;
      let good = (ok_exn "replay" (Journal.replay path)).Journal.valid_bytes in
      (* torn tail: a prefix of a frame that never finished *)
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc "\x00\x00\x00\x2a\xde\xad";
      close_out oc;
      let r = ok_exn "replay torn" (Journal.replay path) in
      check_bool "acked records survive" true (r.Journal.records = journal_ops);
      check_int "valid stops at the tear" good r.Journal.valid_bytes;
      check_int "torn bytes visible" (good + 6) r.Journal.total_bytes;
      ok_exn "truncate" (Journal.truncate_to path r.Journal.valid_bytes);
      (* corrupt tail: a full frame whose payload bit-flipped on disk *)
      let frame =
        let payload = Buffer.create 16 in
        Codec.put_u63 payload 9;
        Record.put_op payload (Record.Remove_view "v2");
        let p = Buffer.contents payload in
        let b = Buffer.create 32 in
        Codec.put_u32 b (String.length p);
        Codec.put_u32 b (Crc32.digest p lxor 1);
        Buffer.add_string b p;
        Buffer.contents b
      in
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc frame;
      close_out oc;
      let r2 = ok_exn "replay corrupt" (Journal.replay path) in
      check_bool "CRC failure stops replay" true
        (r2.Journal.records = journal_ops);
      check_int "corrupt frame not counted" good r2.Journal.valid_bytes;
      (* appending after truncation continues the same journal *)
      ok_exn "truncate 2" (Journal.truncate_to path r2.Journal.valid_bytes);
      let j2 = ok_exn "reopen" (Journal.open_append path) in
      ok_exn "append after tear"
        (Journal.append j2 ~seq:5 (Record.Remove_view "v2"));
      Journal.close j2;
      let r3 = ok_exn "replay 3" (Journal.replay path) in
      check_bool "tail resumes cleanly" true
        (r3.Journal.records = journal_ops @ [ (5, Record.Remove_view "v2") ]))

(* ------------------------------------------------------------------ *)
(* Persist: snapshot_of / state_of_snapshot invert each other          *)

let persist_roundtrip () =
  let cat = Catalog.create_exn (List.map View.of_query Car_loc_part.views) in
  let cat = ok_exn "add" (Catalog.add_views cat [ q "v9(X) :- car(X, X)." ]) in
  let stats = Vplan_stats.Stats.collect Car_loc_part.base in
  let snap = Persist.snapshot_of ~base:Car_loc_part.base ~stats cat in
  (* through the wire format, not just the value *)
  let snap = ok_exn "decode" (Snapshot.decode (Snapshot.encode snap)) in
  let cat', base', stats' =
    ok_exn "state_of_snapshot" (Persist.state_of_snapshot snap)
  in
  (match stats' with
  | None -> Alcotest.fail "stats lost"
  | Some s ->
      check_bool "stats preserved" true
        (Vplan_stats.Stats.bindings s = Vplan_stats.Stats.bindings stats));
  check_int "generation preserved" (Catalog.generation cat)
    (Catalog.generation cat');
  check_bool "views preserved" true
    (List.map View.name (Catalog.views cat)
    = List.map View.name (Catalog.views cat'));
  check_bool "class partition preserved" true
    (List.map (fun (s, vs) -> (s, List.map View.name vs)) (Catalog.keyed cat)
    = List.map (fun (s, vs) -> (s, List.map View.name vs)) (Catalog.keyed cat'));
  match base' with
  | None -> Alcotest.fail "base lost"
  | Some db ->
      check_int "base facts preserved"
        (List.length (Database.facts Car_loc_part.base))
        (List.length (Database.facts db))

(* ------------------------------------------------------------------ *)
(* Store: open/append/save/reopen, and ENOSPC degradation              *)

let store_lifecycle () =
  with_temp_dir (fun dir ->
      let st, r = ok_exn "open" (Store.open_dir dir) in
      check_bool "fresh: no snapshot" true (r.Store.r_snapshot = None);
      check_int "fresh: nothing replayed" 0 (List.length r.Store.r_replayed);
      ok_exn "append 1" (Store.append st (Record.Add_view "v1(X) :- p(X)."));
      ok_exn "append 2" (Store.append st (Record.Add_view "v2(X) :- r(X, X)."));
      check_int "seq advanced" 2 (Store.last_seq st);
      Store.close st;
      let st2, r2 = ok_exn "reopen" (Store.open_dir dir) in
      check_int "both records recovered" 2 (List.length r2.Store.r_replayed);
      check_int "seq recovered" 2 (Store.last_seq st2);
      (* compact: the snapshot subsumes the journal *)
      let snap =
        {
          Snapshot.seq = 0;
          generation = 3;
          views = [ "v1(X) :- p(X)."; "v2(X) :- r(X, X)." ];
          classes = [ ("a", [ 0 ]); ("b", [ 1 ]) ];
          base = None;
          stats = None;
        }
      in
      ok_exn "save" (Store.save st2 snap);
      check_int "journal truncated by save" 0 (Store.journal_bytes st2);
      ok_exn "append post-save" (Store.append st2 (Record.Remove_view "v1"));
      Store.close st2;
      let st3, r3 = ok_exn "reopen 2" (Store.open_dir dir) in
      (match r3.Store.r_snapshot with
      | Some s ->
          check_int "snapshot carries acked seq" 2 s.Snapshot.seq;
          check_int "snapshot generation" 3 s.Snapshot.generation
      | None -> Alcotest.fail "snapshot missing after save");
      check_bool "only the post-save record replays" true
        (List.map snd r3.Store.r_replayed = [ Record.Remove_view "v1" ]);
      Store.close st3)

let store_enospc_degrades () =
  with_temp_dir (fun dir ->
      Failpoint.reset ();
      Fun.protect ~finally:Failpoint.reset @@ fun () ->
      let st, _ = ok_exn "open" (Store.open_dir dir) in
      ok_exn "append ok" (Store.append st (Record.Add_view "v1(X) :- p(X)."));
      Failpoint.arm "store.journal.append" (Failpoint.Io_error "ENOSPC");
      (match Store.append st (Record.Add_view "v2(X) :- p(X).") with
      | Ok () -> Alcotest.fail "append must fail under ENOSPC"
      | Error _ -> ());
      check_bool "degraded to readonly" true (Store.mode st = Store.Readonly);
      check_bool "reason recorded" true (Store.degraded_reason st <> None);
      (* sticky: the store stays readonly even once the disk recovers *)
      Failpoint.reset ();
      (match Store.append st (Record.Add_view "v3(X) :- p(X).") with
      | Ok () -> Alcotest.fail "readonly store must refuse appends"
      | Error e -> check_bool "says readonly" true (contains e "readonly"));
      let dump = Format.asprintf "%t" Metrics.dump in
      check_bool "degraded gauge raised" true
        (contains dump "vplan_store_degraded 1");
      Store.close st;
      (* the acked prefix — one record — survives the episode *)
      let st2, r = ok_exn "reopen" (Store.open_dir dir) in
      check_bool "acked prefix intact" true
        (List.map snd r.Store.r_replayed
        = [ Record.Add_view "v1(X) :- p(X)." ]);
      Store.close st2)

(* ------------------------------------------------------------------ *)
(* Protocol with a store: journal-before-ack, readonly serving, health *)

(* Boot a protocol shared state from [dir] through the server binary's
   own boot path. *)
let protocol_shared ~dir =
  let shared, _ = ok_exn "boot" (Protocol.boot ~domains:1 ~data_dir:dir ()) in
  (Option.get (Protocol.store shared), shared)

let ask shared line =
  let sess = Protocol.new_session shared in
  (Protocol.handle_lines shared sess [ line ]).Protocol.text

let rewrite_line =
  "rewrite q1(S, C) :- car(M, anderson), loc(anderson, C), part(S, M, C)."

let protocol_readonly_serving () =
  with_temp_dir (fun dir ->
      Failpoint.reset ();
      Fun.protect ~finally:Failpoint.reset @@ fun () ->
      let st, shared = protocol_shared ~dir in
      check_bool "bootstrap add acks" true
        (starts_with "ok catalog"
           (ask shared
              "catalog add v4(M, D, C, S) :- car(M, D), loc(D, C), part(S, M, C)."));
      check_bool "health says durable" true
        (contains (ask shared "health") "store=durable");
      (* the disk fills *)
      Failpoint.arm "store.journal.append" (Failpoint.Io_error "ENOSPC");
      check_bool "mutation refused readonly" true
        (starts_with "err readonly"
           (ask shared "catalog add v5(X) :- loc(X, X)."));
      (* reads keep serving from memory *)
      check_bool "reads still answer" true
        (starts_with "ok 1" (ask shared rewrite_line));
      let health = ask shared "health" in
      check_bool "health flips to readonly" true
        (contains health "store=readonly");
      (* the refused view must not be visible *)
      check_bool "unacked not visible" true (contains health "views=1");
      Failpoint.reset ();
      Store.close st;
      (* ... nor durable *)
      let st2, r = ok_exn "reopen" (Store.open_dir dir) in
      check_int "exactly the acked mutation on disk" 1
        (List.length r.Store.r_replayed);
      Store.close st2)

let protocol_save_health () =
  with_temp_dir (fun dir ->
      let st, shared = protocol_shared ~dir in
      check_bool "save without catalog errs" true
        (starts_with "err" (ask shared "save"));
      ignore (ask shared "catalog add v1(M, D, C) :- car(M, D), loc(D, C).");
      ignore (ask shared "catalog add v2(S, M, C) :- part(S, M, C).");
      check_bool "save acks" true (starts_with "ok saved" (ask shared "save"));
      check_int "journal compacted" 0 (Store.journal_records st);
      Store.close st;
      (* warm restart: snapshot only, no replay, same catalog *)
      let st2, shared2 = protocol_shared ~dir in
      let health = ask shared2 "health" in
      check_bool "replayed=0 after compaction" true
        (contains health "replayed=0");
      check_bool "views restored from snapshot" true
        (contains health "views=2");
      check_bool "restored catalog still mutates" true
        (starts_with "ok catalog generation="
           (ask shared2 "catalog remove v2"));
      Store.close st2)

(* ------------------------------------------------------------------ *)
(* Crash matrix: child servers killed at every write site              *)

let server_bin =
  match Sys.getenv_opt "VPLAN_SERVER" with
  | Some p -> p
  | None ->
      (* tests run from _build/default/test/; the server binary is a
         declared dependency of the test stanza, so it is built *)
      Filename.concat
        (Filename.dirname Sys.executable_name)
        "../bin/vplan_server.exe"

let read_all fd =
  let buf = Bytes.create 65536 in
  let b = Buffer.create 4096 in
  let rec go () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> Buffer.contents b
    | n ->
        Buffer.add_subbytes b buf 0 n;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* Run one child server over stdio with [failpoints] armed, feed it
   [commands], and return (stdout lines, exit status). *)
let run_child ~dir ~failpoints commands =
  (* the child may die mid-stream; the write must surface as EPIPE, not
     kill the test runner *)
  let prev_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe prev_sigpipe)
  @@ fun () ->
  let stdin_r, stdin_w = Unix.pipe ~cloexec:false () in
  let stdout_r, stdout_w = Unix.pipe ~cloexec:false () in
  let env =
    Array.append (Unix.environment ())
      (if failpoints = "" then [||]
       else [| "VPLAN_FAILPOINTS=" ^ failpoints |])
  in
  let pid =
    Unix.create_process_env server_bin
      [| server_bin; "--stdio"; "--data-dir"; dir |]
      env stdin_r stdout_w Unix.stderr
  in
  Unix.close stdin_r;
  Unix.close stdout_w;
  let input = String.concat "" (List.map (fun c -> c ^ "\n") commands) in
  (try
     let pos = ref 0 in
     while !pos < String.length input do
       pos :=
         !pos
         + Unix.write_substring stdin_w input !pos (String.length input - !pos)
     done
   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
  (try Unix.close stdin_w with Unix.Unix_error (_, _, _) -> ());
  let out = read_all stdout_r in
  Unix.close stdout_r;
  let _, status = Unix.waitpid [] pid in
  (String.split_on_char '\n' out, status)

let add_command i = Printf.sprintf "catalog add w%d(X, Y) :- p%d(X, Y)." i i

(* Recover the directory the way the server boots, returning the view
   names present after recovery. *)
(* The view names a server booting on [dir] would serve. *)
let recovered_views dir =
  let st, shared = protocol_shared ~dir in
  Fun.protect ~finally:(fun () -> Store.close st) @@ fun () ->
  match Protocol.service shared with
  | None -> []
  | Some s -> List.map View.name (Catalog.views (Service.catalog s))

(* The invariant the whole layer exists for:

     acked  ⊆  recovered  ⊆  issued-prefix(acked + 1)

   The +1 window is a mutation made durable whose ack never reached the
   client (crash between fsync and reply) — indistinguishable, by
   design, from an ack lost in flight. *)
let check_crash_invariant ~label ~acked ~recovered ~issued =
  let prefix n = List.filteri (fun i _ -> i < n) issued in
  check_bool
    (Printf.sprintf "%s: recovered=[%s] is the acked prefix (acked=%d)" label
       (String.concat "," recovered)
       acked)
    true
    (recovered = prefix (List.length recovered)
    && List.length recovered >= acked
    && List.length recovered <= acked + 1)

let crash_sites =
  [
    ("store.journal.append=crash@3", false);
    ("store.journal.append.write=torn:3@2", false);
    ("store.journal.append.write=torn:9@4", false);
    ("store.journal.append.before_fsync=crash@1", false);
    ("store.journal.append.before_fsync=crash@5", false);
    ("store.journal.append.after_fsync=crash@2", false);
    ("store.journal.append.after_fsync=crash@5", false);
    (* snapshot sites; the command stream below inserts a [save] *)
    ("store.snapshot.write=torn:4@1", true);
    ("store.snapshot.before_rename=crash@1", true);
    ("store.snapshot.after_rename=crash@1", true);
    ("store.compact.after_truncate=crash@1", true);
  ]

let crash_matrix () =
  List.iter
    (fun (failpoints, with_save) ->
      with_temp_dir (fun dir ->
          let issued = List.map (fun i -> Printf.sprintf "w%d" i) [ 0; 1; 2; 3; 4 ] in
          let commands =
            if with_save then
              List.map add_command [ 0; 1; 2 ]
              @ [ "save" ]
              @ List.map add_command [ 3; 4 ]
              @ [ "quit" ]
            else List.map add_command [ 0; 1; 2; 3; 4 ] @ [ "quit" ]
          in
          let lines, status = run_child ~dir ~failpoints commands in
          let acked =
            List.length (List.filter (starts_with "ok catalog") lines)
          in
          (match status with
          | Unix.WEXITED 137 -> ()
          | s ->
              Alcotest.failf "%s: expected crash exit 137, got %s" failpoints
                (match s with
                | Unix.WEXITED n -> Printf.sprintf "exit %d" n
                | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
                | Unix.WSTOPPED n -> Printf.sprintf "stop %d" n));
          let recovered = recovered_views dir in
          check_crash_invariant ~label:failpoints ~acked ~recovered ~issued))
    crash_sites

(* After [save], the pre-snapshot mutations live in the snapshot, not
   the journal — crashing a later journal write must not lose them. *)
let crash_after_save_keeps_snapshot () =
  with_temp_dir (fun dir ->
      let commands =
        List.map add_command [ 0; 1; 2 ] @ [ "save"; add_command 3; "quit" ]
      in
      let lines, _ =
        run_child ~dir ~failpoints:"store.journal.append=crash@4" commands
      in
      check_bool "save acked before crash" true
        (List.exists (starts_with "ok saved") lines);
      let recovered = recovered_views dir in
      check_bool
        (Printf.sprintf "snapshot content survives (got=[%s])"
           (String.concat "," recovered))
        true
        (List.length recovered >= 3
        && List.filteri (fun i _ -> i < 3) recovered = [ "w0"; "w1"; "w2" ]))

(* ------------------------------------------------------------------ *)
(* SIGINT drains like SIGTERM: acked mutations on disk, "drained" said *)

let signal_drain signal () =
  with_temp_dir (fun dir ->
      let port_file = Filename.concat dir "port" in
      let stdout_r, stdout_w = Unix.pipe ~cloexec:false () in
      let pid =
        Unix.create_process server_bin
          [|
            server_bin; "--listen"; "0"; "--port-file"; port_file;
            "--data-dir"; dir; "--workers"; "2";
          |]
          Unix.stdin stdout_w Unix.stderr
      in
      Unix.close stdout_w;
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec wait_port () =
        let content =
          if Sys.file_exists port_file then
            In_channel.with_open_text port_file In_channel.input_all
          else ""
        in
        match int_of_string_opt (String.trim content) with
        | Some p when p > 0 -> p
        | _ ->
            if Unix.gettimeofday () > deadline then
              Alcotest.fail "server never wrote its port file"
            else (
              Unix.sleepf 0.02;
              wait_port ())
      in
      let port = wait_port () in
      let c = Loadgen.Client.connect ~port () in
      let acked = ref 0 in
      for i = 0 to 7 do
        match Loadgen.Client.request c (add_command i) with
        | l :: _ when starts_with "ok catalog" l -> incr acked
        | other ->
            Alcotest.failf "add %d failed: %s" i (String.concat "|" other)
      done;
      Unix.kill pid signal;
      let _, status = Unix.waitpid [] pid in
      Loadgen.Client.close c;
      let out = read_all stdout_r in
      Unix.close stdout_r;
      check_bool "clean exit" true (status = Unix.WEXITED 0);
      check_bool "printed drained" true (contains out "drained");
      (* every acked mutation is on disk: draining lost nothing *)
      let recovered = recovered_views dir in
      check_int "no acked mutation lost" !acked (List.length recovered))

let suite =
  [
    Alcotest.test_case "codec roundtrip" `Quick codec_roundtrip;
    Alcotest.test_case "record op roundtrip" `Quick record_roundtrip;
    snapshot_qcheck;
    snapshot_corruption_qcheck;
    Alcotest.test_case "snapshot atomic write" `Quick snapshot_atomic_write;
    Alcotest.test_case "journal roundtrip" `Quick journal_roundtrip;
    Alcotest.test_case "journal torn tail" `Quick journal_torn_tail;
    Alcotest.test_case "persist roundtrip" `Quick persist_roundtrip;
    Alcotest.test_case "store lifecycle" `Quick store_lifecycle;
    Alcotest.test_case "ENOSPC degrades to readonly" `Quick
      store_enospc_degrades;
    Alcotest.test_case "protocol readonly serving" `Quick
      protocol_readonly_serving;
    Alcotest.test_case "protocol save + warm restart" `Quick
      protocol_save_health;
    Alcotest.test_case "crash matrix" `Quick crash_matrix;
    Alcotest.test_case "crash after save" `Quick crash_after_save_keeps_snapshot;
    Alcotest.test_case "SIGINT drains like SIGTERM" `Quick
      (signal_drain Sys.sigint);
    Alcotest.test_case "SIGTERM drains" `Quick (signal_drain Sys.sigterm);
  ]
