(* Hash table + intrusive doubly-linked recency list: O(1) find/add/evict. *)

module Metrics = Vplan_obs.Metrics

(* Global, not per-instance: the registry aggregates over every cache of
   one family in the process, matching the service-lifetime semantics of
   the mutable per-instance counters below. *)
type family = {
  hits_total : Metrics.counter;
  misses_total : Metrics.counter;
  evictions_total : Metrics.counter;
}

(* registered in this order, which is the order [Metrics.dump] prints *)
let family prefix =
  let hits_total = Metrics.counter (prefix ^ "_hits_total") in
  let misses_total = Metrics.counter (prefix ^ "_misses_total") in
  let evictions_total = Metrics.counter (prefix ^ "_evictions_total") in
  { hits_total; misses_total; evictions_total }

let rewrite_family = family "vplan_cache"

type 'a node = {
  key : string;
  value : 'a;
  mutable prev : 'a node option;  (* toward most recent *)
  mutable next : 'a node option;  (* toward least recent *)
}

type 'a t = {
  family : family;
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

let create ?(family = rewrite_family) ~capacity () =
  if capacity <= 0 then invalid_arg "Rewrite_cache.create: capacity must be positive";
  {
    family;
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

let find ?(accept = fun _ -> true) t key =
  match Hashtbl.find_opt t.table key with
  | Some node when accept node.value ->
      t.hits <- t.hits + 1;
      Metrics.incr t.family.hits_total;
      unlink t node;
      push_front t node;
      Some node.value
  | Some _ | None ->
      t.misses <- t.misses + 1;
      Metrics.incr t.family.misses_total;
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
        Metrics.incr t.family.evictions_total)
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
