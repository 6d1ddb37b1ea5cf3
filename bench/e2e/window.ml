(* The end-to-end part of a run: set the server up, drive it from two
   closed-loop clients (one domain and one connection each) for the
   window, check every response, then cross-check the server's own
   counters.  Nothing here is traced. *)

open Vplan
module I = Inputs

let now () = Unix.gettimeofday ()
let starts_with = Child.starts_with

(* A growable float buffer: latency samples are recorded without
   allocating per request, so the client domains rarely collect. *)
module Samples = struct
  type t = { mutable a : Float.Array.t; mutable n : int }

  let create () = { a = Float.Array.create 4096; n = 0 }

  let add t v =
    if t.n = Float.Array.length t.a then begin
      let a = Float.Array.create (2 * t.n) in
      Float.Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    Float.Array.set t.a t.n v;
    t.n <- t.n + 1

  let to_list t = List.init t.n (Float.Array.get t.a)
end

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable ok : int;
  mutable hits : int;
  mutable rewrites : int;  (** ok rewrite responses *)
  mutable plans : int;  (** ok plan responses, exact and estimated *)
  mutable analyzes : int;
  samples : (I.kind * Samples.t) list;
  first : (int, string * string) Hashtbl.t;
      (** distinct query key -> (request line, its first rewriting) *)
  mutable errors : string list;  (** the first few failure messages *)
}

let tally () =
  {
    attempted = 0;
    failed = 0;
    ok = 0;
    hits = 0;
    rewrites = 0;
    plans = 0;
    analyzes = 0;
    samples = List.map (fun k -> (k, Samples.create ())) I.all_kinds;
    first = Hashtbl.create 64;
    errors = [];
  }

let fail t msg =
  t.failed <- t.failed + 1;
  if List.length t.errors < 5 then t.errors <- msg :: t.errors

(* [Ok hit] when the response carries the expected answer. *)
let check (expect : I.expect) lines =
  match lines with
  | first :: rest when starts_with "ok " first -> (
      let words = String.split_on_char ' ' first in
      match (expect, words) with
      | I.Rewrites { count; _ }, _ :: n :: source :: _
        when int_of_string_opt n = Some count && List.length rest = count ->
          Ok (source = "hit")
      | I.Tokens ts, _ when List.for_all (fun w -> List.mem w words) ts -> Ok false
      | I.Rewrites { count; _ }, _ ->
          Error (Printf.sprintf "expected %d rewritings, got: %s" count first)
      | I.Tokens ts, _ ->
          Error (Printf.sprintf "expected %s, got: %s" (String.concat " " ts) first))
  | first :: _ -> Error first
  | [] -> Error "empty response"

let record t ~kind ~line ~expect ~ms lines =
  match check expect lines with
  | Error e -> fail t e
  | Ok hit -> (
      t.ok <- t.ok + 1;
      if hit then t.hits <- t.hits + 1;
      Samples.add (List.assoc kind t.samples) ms;
      match (kind, expect) with
      | (I.Hot | I.Cold), I.Rewrites { key; _ } ->
          t.rewrites <- t.rewrites + 1;
          if not (Hashtbl.mem t.first key) then
            Option.iter
              (fun rw -> Hashtbl.replace t.first key (line, rw))
              (List.nth_opt lines 1)
      | (I.Plan | I.Plan_est), _ -> t.plans <- t.plans + 1
      | I.Analyze, _ -> t.analyzes <- t.analyzes + 1
      | _ -> ())

let transport_error = function
  | Failure _ | Unix.Unix_error _ | End_of_file | Sys_error _ -> true
  | _ -> false

(* One request on [conn], checked; a transport failure (including the
   client's 10 s response deadline) counts as failed and reconnects. *)
let serve t ~port conn (r : I.request) =
  let reconnect () =
    (try Loadgen.Client.close !conn with e when transport_error e -> ());
    conn := Loadgen.Client.connect ~port ()
  in
  match r with
  | I.Control line -> (
      match Loadgen.Client.request !conn line with
      | l :: _ when starts_with "ok" l -> ()
      | other ->
          t.attempted <- t.attempted + 1;
          fail t (line ^ ": " ^ String.concat " | " other)
      | exception e when transport_error e ->
          t.attempted <- t.attempted + 1;
          fail t (line ^ ": " ^ Printexc.to_string e);
          reconnect ())
  | I.Timed { kind; line; expect } -> (
      t.attempted <- t.attempted + 1;
      let t0 = now () in
      match Loadgen.Client.request !conn line with
      | lines -> record t ~kind ~line ~expect ~ms:((now () -. t0) *. 1000.) lines
      | exception e when transport_error e ->
          fail t (Printexc.to_string e);
          reconnect ())

let control conn line =
  match Loadgen.Client.request conn line with
  | l :: _ when starts_with "ok" l -> ()
  | other -> failwith (line ^ ": " ^ String.concat " | " other)

type files = { catalog : string; data : string }

(* One set-up: spawn the server, load the catalog and the base, run the
   warm-up.  Its duration is one [setup_s] sample. *)
let setup ~dir ~files ~tally:t (w : I.t) i =
  let t0 = now () in
  let data_dir =
    if w.durable then Some (Filename.concat dir (Printf.sprintf "data-%d" i)) else None
  in
  let srv =
    Child.spawn ~log:(Filename.concat dir (Printf.sprintf "server-%d.log" i)) ?data_dir ()
  in
  match
    let conn = ref (Loadgen.Client.connect ~port:srv.Child.port ()) in
    control !conn ("catalog load " ^ files.catalog);
    control !conn ("data load " ^ files.data);
    List.iter (serve t ~port:srv.Child.port conn) w.warmup;
    !conn
  with
  | conn -> (srv, conn, now () -. t0)
  | exception e ->
      Child.stop srv;
      raise e

type window = { tallies : tally array; elapsed_s : float }

let run_window ~port ~seconds (w : I.t) =
  let t0 = now () in
  let deadline = t0 +. seconds in
  let clients =
    Array.map
      (fun next ->
        Domain.spawn (fun () ->
            let t = tally () in
            let conn = ref (Loadgen.Client.connect ~port ()) in
            while now () < deadline do
              serve t ~port conn (next ())
            done;
            Loadgen.Client.close !conn;
            t))
      (w.clients ())
  in
  let tallies = Array.map Domain.join clients in
  { tallies; elapsed_s = now () -. t0 }

type counters = { requests : int; hits : int; plan_requests : int; analyze_requests : int }

let server_counters conn =
  match Loadgen.Client.request conn "stats --json" with
  | [ line ] ->
      let j = Json.parse line in
      let get k = int_of_float (Option.value ~default:(-1.) (Json.num_field k j)) in
      {
        requests = get "requests";
        hits = get "hits";
        plan_requests = get "plan_requests";
        analyze_requests = get "analyze_requests";
      }
  | other -> failwith ("stats --json: " ^ String.concat " | " other)

(* The server's counters must have moved by exactly what the clients
   saw answered; every disagreement is one failure. *)
let cross_check t ~before ~after (ws : tally array) =
  let sum f = Array.fold_left (fun acc x -> acc + f x) 0 ws in
  List.iter
    (fun (name, server, clients) ->
      if server <> clients then
        fail t (Printf.sprintf "stats %s moved %d, clients saw %d" name server clients))
    [
      ("requests", after.requests - before.requests, sum (fun x -> x.rewrites));
      ("hits", after.hits - before.hits, sum (fun (x : tally) -> x.hits));
      ("plan_requests", after.plan_requests - before.plan_requests, sum (fun x -> x.plans));
      ( "analyze_requests",
        after.analyze_requests - before.analyze_requests,
        sum (fun x -> x.analyzes) );
    ]

let health_rtts conn n =
  List.init n (fun _ ->
      let t0 = now () in
      control conn "health";
      (now () -. t0) *. 1000.)

(* The first rewriting of each distinct query must be an equivalent
   rewriting of the query as sent (Definition 2.3), checked by
   expansion — independently of how the server computed it. *)
let check_equivalence t (w : I.t) (ws : tally array) =
  let views = w.views @ w.extra_views in
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun x ->
      Hashtbl.iter
        (fun key (line, rw) ->
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            let rule = String.sub line 8 (String.length line - 8) in
            match (Parser.parse_rule rule, Parser.parse_rule (rw ^ ".")) with
            | Ok query, Ok p when Expansion.is_equivalent_rewriting ~views ~query p -> ()
            | _ -> fail t (Printf.sprintf "not an equivalent rewriting of %s: %s" rule rw)
          end)
        x.first)
    ws
