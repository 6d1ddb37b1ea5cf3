(** Equi-width histograms over integer column values.

    A histogram covers the observed [lo .. hi] range with buckets of a
    fixed integer width; constant-selectivity estimation divides a
    bucket's row fraction by its estimated distinct-value count.  The
    representation is transparent so [lib/store] can serialize it into
    snapshots. *)

type t = {
  lo : int;  (** smallest observed value *)
  width : int;  (** integers per bucket, >= 1 *)
  counts : int array;  (** rows per bucket *)
  total : int;  (** total rows counted *)
}

(** [create ?buckets values] builds an equi-width histogram; [None] on an
    empty value list. *)
val create : ?buckets:int -> int list -> t option

val nbuckets : t -> int

(** [hi h] is the largest value covered by the last bucket. *)
val hi : t -> int

(** [bucket_of h v] is the bucket index holding [v], or [None] outside
    the covered range. *)
val bucket_of : t -> int -> int option

(** [eq_fraction ~distinct h v] estimates the fraction of rows whose
    value equals [v]: the bucket's row fraction divided by its estimated
    distinct count ([distinct] spread evenly over buckets, capped by the
    bucket width).  0 outside the observed range. *)
val eq_fraction : distinct:int -> t -> int -> float
