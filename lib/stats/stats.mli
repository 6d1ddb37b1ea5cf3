(** Per-relation statistics: cardinality, per-column distinct counts and
    equi-width histograms.

    Collected once at data-load time and persisted through snapshots so
    the estimated-size cost mode survives a restart without rescanning
    the base data.  Types are transparent so [lib/store] can serialize
    them. *)

open Vplan_cq
open Vplan_relational

type column = {
  distinct : int;  (** number of distinct values in the column *)
  hist : Histogram.t option;  (** present iff the column is all-integer *)
}

type table = {
  card : int;  (** relation cardinality *)
  columns : column array;  (** one entry per attribute position *)
}

type t = table Names.Smap.t

(** [collect ?buckets db] scans every relation of [db] once. *)
val collect : ?buckets:int -> Database.t -> t

val find : string -> t -> table option
val bindings : t -> (string * table) list
val of_bindings : (string * table) list -> t
val num_relations : t -> int
val total_rows : t -> int
