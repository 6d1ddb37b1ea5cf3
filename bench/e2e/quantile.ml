(* The one quantile helper every reported latency goes through.

   Latency percentiles use the nearest-rank definition on integer
   percents: pP of n sorted samples is the sample at rank ceil(P*n/100).
   A tail is only reported when at least [min_beyond] samples lie beyond
   it, so p99 needs 1000 samples and p90 needs 100 — below that the
   "tail" would be a handful of requests. *)

let min_beyond = 10

let rank ~n p = (n * p + 99) / 100

(* [percentile sorted p] for [p] in 1..100; [nan] on no samples. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan else sorted.(max 0 (rank ~n p - 1))

let beyond ~n p = n - rank ~n p

let supported ~n p = beyond ~n p >= min_beyond

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* Run-to-run statistics follow Python's [statistics] module, so a spread
   computed here matches one computed from the result files with
   [statistics.quantiles(values, n=4)]: the median averages the middle
   pair, and quartiles use the default "exclusive" interpolation. *)
let median l =
  let a = sorted_of_list l in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let quartiles l =
  let a = sorted_of_list l in
  let ld = Array.length a in
  if ld < 2 then
    let v = if ld = 1 then a.(0) else Float.nan in
    (v, v)
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

(* Interquartile distance as a share of the median: the spread the
   benchmark's bounds are compared against. *)
let spread l =
  let q1, q3 = quartiles l in
  let m = median l in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m
