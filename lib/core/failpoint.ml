type action =
  | Crash
  | Io_error of string
  | Torn of int

type point = {
  act : action;
  mutable remaining : int;  (* hits before the action fires; <= 0 = firing *)
}

(* [armed] is the only state the disarmed fast path reads: one atomic
   load decides that [hit] is a no-op.  The table itself is guarded by a
   mutex — failpoints fire on I/O paths where a lock is noise, and the
   store's own locking already serializes most callers. *)
let armed = Atomic.make 0
let table : (string, point) Hashtbl.t = Hashtbl.create 8
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let arm ?(after = 1) name act =
  locked (fun () ->
      if not (Hashtbl.mem table name) then Atomic.incr armed;
      Hashtbl.replace table name { act; remaining = max 1 after })

let reset () =
  locked (fun () ->
      Hashtbl.reset table;
      Atomic.set armed 0)

let crash () = Unix._exit 137

let hit name =
  if Atomic.get armed = 0 then None
  else
    let fired =
      locked (fun () ->
          match Hashtbl.find_opt table name with
          | None -> None
          | Some p ->
              p.remaining <- p.remaining - 1;
              if p.remaining <= 0 then Some p.act else None)
    in
    match fired with
    | Some Crash -> crash ()
    | (Some (Io_error _ | Torn _) | None) as a -> a

let parse_action s =
  match String.index_opt s ':' with
  | None -> (
      match s with
      | "crash" -> Some Crash
      | "enospc" -> Some (Io_error "ENOSPC")
      | _ -> None)
  | Some i -> (
      let kind = String.sub s 0 i in
      let arg = String.sub s (i + 1) (String.length s - i - 1) in
      match kind with
      | "io" when arg <> "" -> Some (Io_error arg)
      | "torn" -> (
          match int_of_string_opt arg with
          | Some n when n >= 0 -> Some (Torn n)
          | _ -> None)
      | _ -> None)

let parse_item item =
  match String.index_opt item '=' with
  | None -> None
  | Some i -> (
      let name = String.trim (String.sub item 0 i) in
      let rhs = String.sub item (i + 1) (String.length item - i - 1) in
      let act_s, after =
        match String.index_opt rhs '@' with
        | None -> (rhs, 1)
        | Some j -> (
            let n = String.sub rhs (j + 1) (String.length rhs - j - 1) in
            ( String.sub rhs 0 j,
              match int_of_string_opt n with Some v when v >= 1 -> v | _ -> 1 ))
      in
      match (name, parse_action (String.trim act_s)) with
      | "", _ | _, None -> None
      | name, Some act -> Some (name, after, act))

let init_from_env () =
  match Sys.getenv_opt "VPLAN_FAILPOINTS" with
  | None | Some "" -> ()
  | Some spec ->
      List.iter
        (fun item ->
          match parse_item (String.trim item) with
          | Some (name, after, act) -> arm ~after name act
          | None -> ())
        (String.split_on_char ',' spec)
