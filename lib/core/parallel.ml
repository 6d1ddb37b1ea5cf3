(* A minimal Domain-based fork/join pool (OCaml 5 stdlib only).

   Work is split into one contiguous chunk per worker before any domain is
   spawned: there is no shared queue, no work stealing, and therefore no
   scheduling nondeterminism.  Results are reassembled in chunk order, so
   [map f xs] returns exactly [List.map f xs] for a pure [f], whatever the
   worker count.  [f] must not rely on shared mutable state unless that
   state is itself domain-safe.

   [map] is an exception barrier: a chunk's exception is caught inside its
   own domain (so Domain.join never raises) and every handle is joined
   before the first failure — by chunk index, not completion order — is
   re-raised on the calling domain. *)

module Budget = Vplan_core.Budget
module Vplan_error = Vplan_core.Vplan_error
module Trace = Vplan_obs.Trace

let chunk_bounds ~workers n =
  (* worker [w] handles [fst bounds.(w) .. snd bounds.(w) - 1]; the first
     [n mod workers] chunks take one extra element *)
  let base = n / workers and extra = n mod workers in
  Array.init workers (fun w ->
      let start = (w * base) + min w extra in
      let len = base + if w < extra then 1 else 0 in
      (start, start + len))

let map_init ?budget ?(domains = 1) ~init f xs =
  let n = List.length xs in
  let workers = max 1 (min domains n) in
  if workers = 1 then
    let s = init () in
    List.map (fun x -> f s x) xs
  else begin
    let arr = Array.of_list xs in
    let bounds = chunk_bounds ~workers n in
    let run_chunk w =
      let start, stop = bounds.(w) in
      let s = init () in
      List.init (stop - start) (fun i -> f s arr.(start + i))
    in
    let attempt w =
      match run_chunk w with
      | r -> Ok r
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          (* wake sibling chunks that poll the shared budget *)
          Option.iter Budget.cancel budget;
          Error (e, bt)
    in
    (* spawn workers 1..n-1; the calling domain computes chunk 0 itself.
       The spawner's trace context rides along so any span a worker
       records attaches under the span open at the fan-out point. *)
    let ctx = Trace.context () in
    let handles =
      Array.init (workers - 1) (fun i ->
          Domain.spawn (fun () -> Trace.with_context ctx (fun () -> attempt (i + 1))))
    in
    let first = attempt 0 in
    (* [attempt] catches everything, so every join succeeds: all domains
       are reclaimed before any error propagates *)
    let results = Array.append [| first |] (Array.map Domain.join handles) in
    let is_cancelled = function
      | Error (Vplan_error.Error Vplan_error.Cancelled, _) -> true
      | _ -> false
    in
    (* Deterministic surfacing: prefer the lowest-indexed root cause; a
       Cancelled failure is only the root cause if nothing else failed
       (it may have been induced by another chunk's cancel above). *)
    let first_error =
      match Array.find_opt (fun r -> Result.is_error r && not (is_cancelled r)) results with
      | Some e -> Some e
      | None -> Array.find_opt Result.is_error results
    in
    match first_error with
    | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
    | Some (Ok _) | None ->
        List.concat_map (function Ok r -> r | Error _ -> assert false)
          (Array.to_list results)
  end

let map ?budget ?domains f xs = map_init ?budget ?domains ~init:ignore (fun () x -> f x) xs
