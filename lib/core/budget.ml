(* One increment per budget that actually trips (first CAS winner only):
   re-raises of an already-tripped budget do not count. *)
let cutoffs_total = Vplan_obs.Metrics.counter "vplan_budget_cutoffs_total"

type t = {
  start : float;
  deadline : float option; (* absolute, seconds since epoch *)
  limit_ms : float;
  max_steps : int option;
  steps : int Atomic.t;
  stop : Vplan_error.t option Atomic.t;
}

let create ?deadline_ms ?max_steps () =
  let start = Unix.gettimeofday () in
  let deadline =
    Option.map (fun ms -> start +. (ms /. 1000.)) deadline_ms
  in
  {
    start;
    deadline;
    limit_ms = Option.value deadline_ms ~default:0.;
    max_steps;
    steps = Atomic.make 0;
    stop = Atomic.make None;
  }

let of_limits ?deadline_ms ?max_steps () =
  if deadline_ms = None && max_steps = None then None
  else Some (create ?deadline_ms ?max_steps ())

let elapsed_ms t = (Unix.gettimeofday () -. t.start) *. 1000.

(* First trip wins across domains: a failed CAS means another domain
   already recorded its reason, which we must preserve. *)
let trip t err =
  if Atomic.compare_and_set t.stop None (Some err) then
    Vplan_obs.Metrics.incr cutoffs_total;
  match Atomic.get t.stop with
  | Some e -> raise (Vplan_error.Error e)
  | None -> assert false

let check t =
  (match Atomic.get t.stop with
  | Some e -> raise (Vplan_error.Error e)
  | None -> ());
  let n = Atomic.fetch_and_add t.steps 1 in
  (match t.max_steps with
  | Some limit when n >= limit -> trip t (Vplan_error.Step_limit { limit })
  | _ -> ());
  match t.deadline with
  | Some d when n land 63 = 0 ->
      let now = Unix.gettimeofday () in
      if now > d then
        trip t
          (Vplan_error.Timeout
             { elapsed_ms = (now -. t.start) *. 1000.; limit_ms = t.limit_ms })
  | _ -> ()

let tick = function None -> () | Some t -> check t

let cancel t =
  ignore (Atomic.compare_and_set t.stop None (Some Vplan_error.Cancelled))

let stopped t = Atomic.get t.stop
