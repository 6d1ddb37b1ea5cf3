(* The server under test, as a child process: the real [vplan_server]
   binary found on PATH, in its own heap, so the load generator's
   allocations never pause it. *)

type t = { pid : int; port : int; out : in_channel }

let server_binary = "vplan_server"

(* Servers not yet stopped; the benchmark stops them on any exit. *)
let live : t list ref = ref []

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* [spawn ~log ?data_dir ()] starts a TCP server with the default pool
   ([--workers 2 --queue 128]) on an ephemeral port and returns once it
   reports the port it listens on. *)
let spawn ~log ?data_dir () =
  let args =
    [ server_binary; "--workers"; "2"; "--queue"; "128" ]
    @ match data_dir with Some d -> [ "--data-dir"; d ] | None -> []
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let err =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null; Unix.close err; Unix.close out_w)
      (fun () ->
        try Unix.create_process server_binary (Array.of_list args) null out_w err
        with Unix.Unix_error (e, _, _) ->
          Unix.close out_r;
          failwith
            (Printf.sprintf "cannot start %s (is it on PATH?): %s" server_binary
               (Unix.error_message e)))
  in
  let out = Unix.in_channel_of_descr out_r in
  (* the server prints its recovery line (durable mode) before the
     listening line; anything else before EOF means it failed to start *)
  let rec port () =
    match input_line out with
    | line when starts_with "listening " line ->
        List.find_map
          (fun w ->
            if starts_with "port=" w then
              int_of_string_opt (String.sub w 5 (String.length w - 5))
            else None)
          (String.split_on_char ' ' line)
    | _ -> port ()
    | exception End_of_file -> None
  in
  match port () with
  | Some port ->
      let t = { pid; port; out } in
      live := t :: !live;
      t
  | None ->
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      close_in_noerr out;
      failwith
        (Printf.sprintf "%s did not start (is it on PATH?); see %s" server_binary log)

(* SIGTERM drains in-flight requests; a server that has not exited after
   [grace_s] is killed.  Always reaps the child. *)
let stop ?(grace_s = 20.) t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. grace_s in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] t.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  close_in_noerr t.out;
  live := List.filter (fun s -> s != t) !live

let stop_all () = List.iter stop !live

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* utime + stime of the whole process (every domain), in milliseconds.
   /proc reports clock ticks; USER_HZ is 100 on Linux. *)
let cpu_ms t =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" t.pid) in
  (* the command name may contain spaces: count fields after its ')',
     where field 3 (state) comes first and utime, stime are 14 and 15 *)
  let after = String.rindex stat ')' + 2 in
  let fields =
    Array.of_list (String.split_on_char ' ' (String.sub stat after (String.length stat - after)))
  in
  10. *. (float_of_string fields.(11) +. float_of_string fields.(12))

(* Peak resident set (VmHWM), in MB. *)
let peak_rss_mb t =
  let status = read_file (Printf.sprintf "/proc/%d/status" t.pid) in
  let line = List.find (starts_with "VmHWM:") (String.split_on_char '\n' status) in
  let words = String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) line) in
  float_of_int (Option.get (List.find_map int_of_string_opt words)) /. 1024.
