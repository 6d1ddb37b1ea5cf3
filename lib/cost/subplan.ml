type entry = {
  slots : int array;
  envs : int array list;
  cells : int;
}

type t = {
  table : (string, entry) Hashtbl.t;
  interns : (string, int) Hashtbl.t;
  capacity : int;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable resets : int;
}

let create ?(capacity = 1 lsl 18) () =
  {
    table = Hashtbl.create 1024;
    interns = Hashtbl.create 256;
    capacity = max 1 capacity;
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
    resets = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Interned codes survive [clear] and capacity resets: they name atoms,
   not cached values, and stay valid for the store's whole lifetime. *)
let intern t id =
  locked t (fun () ->
      match Hashtbl.find_opt t.interns id with
      | Some code -> code
      | None ->
          let code = Hashtbl.length t.interns in
          Hashtbl.add t.interns id code;
          code)

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some e ->
          t.hits <- t.hits + 1;
          Some e
      | None -> None)

(* The join evaluation in [compute] runs outside the lock: it can be far
   more expensive than the table operations, and it only reads the (immutable)
   database.  Two domains racing on one key both compute the same canonical
   value, so last-insert-wins is correct. *)
let find_or_add t key compute =
  match
    locked t (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some e ->
            t.hits <- t.hits + 1;
            Some e
        | None ->
            t.misses <- t.misses + 1;
            None)
  with
  | Some e -> e
  | None ->
      let e = compute () in
      locked t (fun () ->
          if Hashtbl.length t.table >= t.capacity then begin
            Hashtbl.reset t.table;
            t.resets <- t.resets + 1
          end;
          Hashtbl.replace t.table key e);
      e

type counters = {
  size : int;
  hits : int;
  misses : int;
  resets : int;
}

let counters t =
  locked t (fun () ->
      { size = Hashtbl.length t.table; hits = t.hits; misses = t.misses; resets = t.resets })
