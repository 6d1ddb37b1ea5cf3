(* vplan_server — the resident rewriting service, two front ends:

   - TCP (default): a concurrent socket server.  One poller domain owns
     the sockets, a fixed pool of worker domains runs requests off a
     bounded queue, and a full queue sheds with "err busy" instead of
     building a latency backlog.  SIGTERM/SIGINT drain gracefully.
   - stdio (--stdio): the original one-session line protocol on
     stdin/stdout, for piping and for the cram tests.

   Both speak exactly the same protocol (Vplan.Protocol). *)

let usage () =
  prerr_endline
    "usage: vplan_server [--catalog FILE] [--cache N] [--domains N]\n\
    \                    [--timeout MS] [--max-steps N] [--max-covers N]\n\
    \                    [--slow-ms MS] [--cost-mode exact|estimated]\n\
    \                    [--stdio | --listen PORT] [--host ADDR]\n\
    \                    [--workers N] [--queue N] [--max-requests N]\n\
    \                    [--port-file FILE] [--data-dir DIR]";
  exit 2

type mode = Tcp | Stdio

let () =
  let catalog_file = ref None in
  let cache_capacity = ref None in
  let domains = ref None in
  let timeout_ms = ref None in
  let max_steps = ref None in
  let max_covers = ref None in
  let slow_ms = ref None in
  let cost_mode = ref None in
  let mode = ref Tcp in
  let host = ref "127.0.0.1" in
  let port = ref 0 in
  let workers = ref 2 in
  let queue = ref 128 in
  let max_requests = ref None in
  let port_file = ref None in
  let data_dir = ref None in
  let int_arg n k =
    match int_of_string_opt n with Some v when v > 0 -> k v | _ -> usage ()
  in
  let float_arg ?(min = 0.) ms k =
    match float_of_string_opt ms with Some v when v >= min -> k v | _ -> usage ()
  in
  let rec parse_args = function
    | [] -> ()
    | "--catalog" :: path :: rest ->
        catalog_file := Some path;
        parse_args rest
    | "--cache" :: n :: rest ->
        int_arg n (fun v -> cache_capacity := Some v);
        parse_args rest
    | "--domains" :: n :: rest ->
        int_arg n (fun v -> domains := Some v);
        parse_args rest
    | "--timeout" :: ms :: rest ->
        float_arg ~min:epsilon_float ms (fun v -> timeout_ms := Some v);
        parse_args rest
    | "--max-steps" :: n :: rest ->
        int_arg n (fun v -> max_steps := Some v);
        parse_args rest
    | "--max-covers" :: n :: rest ->
        int_arg n (fun v -> max_covers := Some v);
        parse_args rest
    | "--slow-ms" :: ms :: rest ->
        float_arg ms (fun v -> slow_ms := Some v);
        parse_args rest
    | "--cost-mode" :: m :: rest ->
        (match m with
        | "exact" -> cost_mode := Some Vplan.Service.Exact
        | "estimated" -> cost_mode := Some Vplan.Service.Estimated
        | _ -> usage ());
        parse_args rest
    | "--stdio" :: rest ->
        mode := Stdio;
        parse_args rest
    | "--listen" :: p :: rest -> (
        match int_of_string_opt p with
        | Some v when v >= 0 && v < 65536 ->
            port := v;
            parse_args rest
        | _ -> usage ())
    | "--host" :: h :: rest ->
        host := h;
        parse_args rest
    | "--workers" :: n :: rest ->
        int_arg n (fun v -> workers := v);
        parse_args rest
    | "--queue" :: n :: rest ->
        int_arg n (fun v -> queue := v);
        parse_args rest
    | "--max-requests" :: n :: rest ->
        int_arg n (fun v -> max_requests := Some v);
        parse_args rest
    | "--port-file" :: f :: rest ->
        port_file := Some f;
        parse_args rest
    | "--data-dir" :: d :: rest ->
        data_dir := Some d;
        parse_args rest
    | _ -> usage ()
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  (* fault-injection sites are inert unless VPLAN_FAILPOINTS arms them;
     the crash-matrix tests drive the server through this hook *)
  Vplan.Failpoint.init_from_env ();
  let fatal fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt in
  (* Recovery happens before any front end serves: last-good snapshot,
     then the journal's surviving suffix, exactly once. *)
  let shared =
    match !data_dir with
    | None ->
        Vplan.Protocol.create_shared ?cache_capacity:!cache_capacity
          ?domains:!domains ?timeout_ms:!timeout_ms ?max_steps:!max_steps
          ?max_covers:!max_covers ?slow_ms:!slow_ms ?cost_mode:!cost_mode ()
    | Some dir -> (
        match
          Vplan.Protocol.boot ?cache_capacity:!cache_capacity ?domains:!domains
            ?timeout_ms:!timeout_ms ?max_steps:!max_steps ?max_covers:!max_covers
            ?slow_ms:!slow_ms ?cost_mode:!cost_mode ~data_dir:dir ()
        with
        | Error e -> fatal "%s" e
        | Ok (shared, b) ->
            Printf.printf
              "store dir=%s recovered views=%d replayed=%d truncated_bytes=%d\n%!"
              dir b.views b.replayed b.truncated_bytes;
            shared)
  in
  let close_store () =
    match Vplan.Protocol.store shared with
    | Some st -> Vplan.Store.close st
    | None -> ()
  in
  (* --catalog behaves exactly like an initial "catalog load FILE"
     request: same ok/err line, but a failure is fatal at startup. *)
  (match !catalog_file with
  | None -> ()
  | Some path ->
      let boot = Vplan.Protocol.new_session shared in
      let reply =
        Vplan.Protocol.handle_lines shared boot [ "catalog load " ^ path ]
      in
      print_string reply.Vplan.Protocol.text;
      flush stdout;
      if Vplan.Protocol.service shared = None then exit 1);
  match !mode with
  | Stdio ->
      let session = Vplan.Protocol.new_session shared in
      let interactive = Unix.isatty Unix.stdin in
      if interactive then
        print_endline "vplan server \u{2014} type 'help' for commands";
      let read_line () =
        match input_line stdin with
        | line -> Some line
        | exception End_of_file -> None
      in
      (* the same reply path as a TCP worker: one retained buffer,
         written out with no reply-sized copy *)
      let out = Vplan.Net_server.reply_buffer () in
      let rec loop () =
        if interactive then (
          print_string "vplan> ";
          flush stdout);
        match input_line stdin with
        | line ->
            let close =
              Vplan.Protocol.handle_into shared session out ~read_line line
            in
            Buffer.output_buffer stdout out;
            flush stdout;
            Vplan.Net_server.recycle out;
            if not close then loop ()
        | exception End_of_file -> ()
      in
      loop ();
      close_store ()
  | Tcp ->
      let handler () =
        let session = Vplan.Protocol.new_session shared in
        Vplan.Protocol.handle_lines_into shared session
      in
      let server =
        Vplan.Net_server.create ~host:!host ~port:!port ~workers:!workers
          ~queue_capacity:!queue ?max_requests:!max_requests
          ~extra_lines:Vplan.Protocol.extra_lines ~handler ()
      in
      let bound = Vplan.Net_server.port server in
      (match !port_file with
      | None -> ()
      | Some f ->
          let oc = open_out f in
          output_string oc (string_of_int bound);
          output_char oc '\n';
          close_out oc);
      Printf.printf "listening host=%s port=%d workers=%d queue=%d\n%!" !host
        bound !workers !queue;
      let stop _ = Vplan.Net_server.stop server in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
      Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
      Vplan.Net_server.run server;
      (* every acked request's journal record is already fsynced; this
         closes the fd so the "drained" line means "nothing in flight,
         nothing buffered" *)
      close_store ();
      Printf.printf "drained\n%!"
