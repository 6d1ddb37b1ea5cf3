type t = {
  lo : int;
  width : int;  (* integers per bucket, >= 1 *)
  counts : int array;
  total : int;
}

let default_buckets = 16

let create ?(buckets = default_buckets) values =
  if buckets <= 0 then invalid_arg "Histogram.create: buckets must be positive";
  match values with
  | [] -> None
  | v0 :: rest ->
      let lo = List.fold_left min v0 rest in
      let hi = List.fold_left max v0 rest in
      let span = hi - lo + 1 in
      let width = max 1 ((span + buckets - 1) / buckets) in
      let nbuckets = max 1 ((span + width - 1) / width) in
      let counts = Array.make nbuckets 0 in
      List.iter
        (fun v ->
          let b = (v - lo) / width in
          counts.(b) <- counts.(b) + 1)
        values;
      Some { lo; width; counts; total = List.length values }

let nbuckets h = Array.length h.counts

let hi h = h.lo + (h.width * Array.length h.counts) - 1

let bucket_of h v =
  if v < h.lo || v > hi h then None else Some ((v - h.lo) / h.width)

(* Fraction of rows whose value equals [v], assuming the [distinct]
   values of the column spread evenly over the buckets and rows spread
   evenly over the distinct values inside a bucket.  A value outside the
   observed range matches nothing. *)
let eq_fraction ~distinct h v =
  match bucket_of h v with
  | None -> 0.0
  | Some b ->
      if h.total = 0 then 0.0
      else
        let bucket_fraction = float_of_int h.counts.(b) /. float_of_int h.total in
        let per_bucket_distinct =
          Float.max 1.0
            (Float.min (float_of_int h.width)
               (float_of_int (max 1 distinct) /. float_of_int (nbuckets h)))
        in
        bucket_fraction /. per_bucket_distinct
