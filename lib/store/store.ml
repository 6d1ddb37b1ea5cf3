module Metrics = Vplan_obs.Metrics

let degraded_gauge = Metrics.gauge "vplan_store_degraded"
let appends_total = Metrics.counter "vplan_store_journal_appends_total"
let append_errors_total = Metrics.counter "vplan_store_append_errors_total"
let snapshots_total = Metrics.counter "vplan_store_snapshots_total"

let snapshot_file = "snapshot.vps"
let journal_file = "journal.vpj"

type mode = Durable | Readonly

type recovery = {
  r_snapshot : Snapshot.t option;
  r_replayed : (int * Record.op) list;
  r_journal_records : int;
  r_truncated_bytes : int;
  r_snapshot_age_s : float;
}

type t = {
  sdir : string;
  lock : Mutex.t;  (* serializes append/save/mode flips *)
  mutable journal : Journal.t option;  (* None once closed *)
  mutable smode : mode;
  mutable reason : string option;
  mutable seq : int;  (* last seq written or recovered *)
  mutable records : int;  (* journal records since the snapshot *)
}

let mode t = t.smode
let last_seq t = t.seq
let journal_records t = t.records

let journal_bytes t =
  match t.journal with Some j -> Journal.bytes j | None -> 0

let degraded_reason t = t.reason

let snapshot_age_s t =
  match Unix.stat (Filename.concat t.sdir snapshot_file) with
  | st -> Some (Float.max 0. (Unix.gettimeofday () -. st.Unix.st_mtime))
  | exception Unix.Unix_error (_, _, _) -> None

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let degrade_unlocked t ~reason =
  if t.smode = Durable then begin
    t.smode <- Readonly;
    t.reason <- Some reason;
    Metrics.set degraded_gauge 1
  end

let ( let* ) = Result.bind

let open_dir sdir =
  let* () =
    match Sys.is_directory sdir with
    | true -> Ok ()
    | false -> Error (sdir ^ " exists and is not a directory")
    | exception Sys_error _ -> (
        match Unix.mkdir sdir 0o755 with
        | () -> Ok ()
        | exception Unix.Unix_error (e, _, _) ->
            Error
              (Printf.sprintf "cannot create %s: %s" sdir (Unix.error_message e)))
  in
  let spath = Filename.concat sdir snapshot_file in
  let jpath = Filename.concat sdir journal_file in
  (* a temp file left by a crash mid-snapshot is garbage by design *)
  (try Sys.remove (spath ^ ".tmp") with Sys_error _ -> ());
  let* snapshot = Snapshot.read spath in
  let* replayed = Journal.replay jpath in
  let* () =
    if replayed.Journal.valid_bytes < replayed.Journal.total_bytes then
      Journal.truncate_to jpath replayed.Journal.valid_bytes
    else Ok ()
  in
  let* journal = Journal.open_append jpath in
  let snap_seq = match snapshot with Some s -> s.Snapshot.seq | None -> 0 in
  (* records at or below the snapshot's seq were compacted into it; a
     crash between snapshot rename and journal truncation leaves them
     behind, and this filter is what makes that window harmless *)
  let to_apply =
    List.filter (fun (seq, _) -> seq > snap_seq) replayed.Journal.records
  in
  let last_seq =
    List.fold_left (fun acc (seq, _) -> max acc seq) snap_seq
      replayed.Journal.records
  in
  let age =
    match snapshot with
    | None -> 0.
    | Some _ -> (
        match Unix.stat spath with
        | st -> Float.max 0. (Unix.gettimeofday () -. st.Unix.st_mtime)
        | exception Unix.Unix_error (_, _, _) -> 0.)
  in
  Metrics.set degraded_gauge 0;
  Ok
    ( {
        sdir;
        lock = Mutex.create ();
        journal = Some journal;
        smode = Durable;
        reason = None;
        seq = last_seq;
        records = List.length to_apply;
      },
      {
        r_snapshot = snapshot;
        r_replayed = to_apply;
        r_journal_records = List.length replayed.Journal.records;
        r_truncated_bytes =
          replayed.Journal.total_bytes - replayed.Journal.valid_bytes;
        r_snapshot_age_s = age;
      } )

let append t op =
  locked t (fun () ->
      match (t.smode, t.journal) with
      | Readonly, _ ->
          Error
            ("store is readonly: "
            ^ Option.value ~default:"degraded" t.reason)
      | Durable, None -> Error "store is closed"
      | Durable, Some j -> (
          let seq = t.seq + 1 in
          match Journal.append j ~seq op with
          | Ok () ->
              t.seq <- seq;
              t.records <- t.records + 1;
              Metrics.incr appends_total;
              Ok ()
          | Error msg ->
              Metrics.incr append_errors_total;
              degrade_unlocked t ~reason:msg;
              Error msg))

let save t snapshot =
  locked t (fun () ->
      match t.smode with
      | Readonly ->
          Error
            ("store is readonly: "
            ^ Option.value ~default:"degraded" t.reason)
      | Durable -> (
          let snapshot = { snapshot with Snapshot.seq = t.seq } in
          match Snapshot.write ~dir:t.sdir ~file:snapshot_file snapshot with
          | Error msg ->
              degrade_unlocked t ~reason:msg;
              Error msg
          | Ok () -> (
              Metrics.incr snapshots_total;
              (* from here the snapshot is the truth; the journal's
                 records are duplicates replay will skip by seq *)
              (match t.journal with
              | Some j -> Journal.close j
              | None -> ());
              let jpath = Filename.concat t.sdir journal_file in
              let* () = Journal.truncate_to jpath 0 in
              ignore (Vplan_core.Failpoint.hit "store.compact.after_truncate");
              match Journal.open_append jpath with
              | Ok j ->
                  t.journal <- Some j;
                  t.records <- 0;
                  Ok ()
              | Error msg ->
                  t.journal <- None;
                  degrade_unlocked t ~reason:msg;
                  Error msg)))

let close t =
  locked t (fun () ->
      match t.journal with
      | Some j ->
          Journal.close j;
          t.journal <- None
      | None -> ())
