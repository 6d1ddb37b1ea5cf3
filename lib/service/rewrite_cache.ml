(* Hash table + intrusive doubly-linked recency list: O(1) find/add/evict. *)

module Metrics = Vplan_obs.Metrics

(* Global, not per-instance: the registry aggregates over every cache in
   the process, matching the service-lifetime semantics of the mutable
   per-instance counters below. *)
let hits_total = Metrics.counter "vplan_cache_hits_total"
let misses_total = Metrics.counter "vplan_cache_misses_total"
let evictions_total = Metrics.counter "vplan_cache_evictions_total"

type 'a node = {
  key : string;
  value : 'a;
  mutable prev : 'a node option;  (* toward most recent *)
  mutable next : 'a node option;  (* toward least recent *)
}

type 'a t = {
  capacity : int;
  table : (string, 'a node) Hashtbl.t;
  mutable mru : 'a node option;
  mutable lru : 'a node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Rewrite_cache.create: capacity must be positive";
  {
    capacity;
    table = Hashtbl.create (min capacity 1024);
    mru = None;
    lru = None;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.mru <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.lru <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.mru;
  node.prev <- None;
  (match t.mru with Some m -> m.prev <- Some node | None -> t.lru <- Some node);
  t.mru <- Some node

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some node ->
      t.hits <- t.hits + 1;
      Metrics.incr hits_total;
      unlink t node;
      push_front t node;
      Some node.value
  | None ->
      t.misses <- t.misses + 1;
      Metrics.incr misses_total;
      None

let add t key value =
  (match Hashtbl.find_opt t.table key with
  | Some old ->
      (* replacement, not an eviction: the key stays resident *)
      unlink t old;
      Hashtbl.remove t.table key
  | None -> ());
  let node = { key; value; prev = None; next = None } in
  Hashtbl.replace t.table key node;
  push_front t node;
  (* over capacity, the list holds at least the node just pushed *)
  if Hashtbl.length t.table > t.capacity then
    Option.iter
      (fun victim ->
        unlink t victim;
        Hashtbl.remove t.table victim.key;
        t.evictions <- t.evictions + 1;
        Metrics.incr evictions_total)
      t.lru

let retain t keep =
  let rec walk = function
    | None -> ()
    | Some node ->
        let next = node.next in
        if not (keep node.key node.value) then begin
          unlink t node;
          Hashtbl.remove t.table node.key
        end;
        walk next
  in
  walk t.mru

let clear t =
  Hashtbl.reset t.table;
  t.mru <- None;
  t.lru <- None

let counters (t : 'a t) =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    size = Hashtbl.length t.table;
    capacity = t.capacity;
  }
