(* Running q-error aggregates.  The max tracks the worst miss, the
   geometric mean the typical one: q-errors are ratios, so the
   arithmetic mean would let one 1000x outlier drown a hundred perfect
   estimates without the max adding information over it. *)

type acc = { mutable n : int; mutable worst : float; mutable sum_log : float }

let create () = { n = 0; worst = 1.; sum_log = 0. }

let observe a q =
  if not (Float.is_nan q) then begin
    let q = Float.max q 1. in
    a.n <- a.n + 1;
    if q > a.worst then a.worst <- q;
    a.sum_log <- a.sum_log +. log q
  end

let count a = a.n
let max_q a = if a.n = 0 then Float.nan else a.worst
let mean_q a = if a.n = 0 then Float.nan else exp (a.sum_log /. float_of_int a.n)

module Smap = Map.Make (String)

type by_rel = { mutable rels : acc Smap.t }

let create_registry () = { rels = Smap.empty }

let observe_rel r name q =
  let a =
    match Smap.find_opt name r.rels with
    | Some a -> a
    | None ->
        let a = create () in
        r.rels <- Smap.add name a r.rels;
        a
  in
  observe a q

let bindings r = Smap.bindings r.rels
