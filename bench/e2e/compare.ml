(* [vplan_e2e compare OLD.json NEW.json]: for every workload and
   end-to-end metric present in both result files, the median change
   against the metric's bound.

   - unresolved: the quartile spread of either side is wider than the
     bound, unless every new run reads better than every old one;
   - regressed / improved: the medians differ by more than the bound;
   - unchanged: otherwise.
   Exits 1 on any regression, or when a workload's error_frac rose. *)

let load path =
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | j -> (
      match Json.member "runs" j with
      | Some (Json.Arr runs) -> runs
      | _ -> failwith (path ^ ": no \"runs\" array"))
  | exception Json.Parse_error e -> failwith (path ^ ": " ^ e)

let workload run name =
  Option.bind (Json.member "workloads" run) (Json.member name)

let e2e_values runs name metric =
  List.filter_map
    (fun run ->
      Option.bind (workload run name) (fun w ->
          Option.bind (Json.member "end_to_end" w) (fun e ->
              Option.bind (Json.member metric e) (Json.num_field "value"))))
    runs

let error_fracs runs name =
  List.filter_map
    (fun run -> Option.bind (workload run name) (Json.num_field "error_frac"))
    runs

let verdict (m : Spec.metric) ~old ~cur =
  let mo = Quantile.median old and mn = Quantile.median cur in
  let delta = if mo = 0. then 0. else (mn -. mo) /. Float.abs mo in
  let worse = match m.Spec.better with Spec.Lower -> delta | Spec.Higher -> -.delta in
  let spread = Float.max (Quantile.spread old) (Quantile.spread cur) in
  let fold f l = List.fold_left f (List.hd l) l in
  let all_better =
    match m.Spec.better with
    | Spec.Lower -> fold Float.max cur < fold Float.min old
    | Spec.Higher -> fold Float.min cur > fold Float.max old
  in
  let label =
    if spread > Spec.bound then if all_better then "improved" else "unresolved"
    else if worse > Spec.bound then "regressed"
    else if worse < -.Spec.bound then "improved"
    else "unchanged"
  in
  (mo, mn, delta, spread, label)

let run old_path new_path =
  let old_runs = load old_path and new_runs = load new_path in
  Printf.printf "%-14s %-22s %12s %12s %8s %6s %7s  %s\n" "workload" "metric" "old" "new"
    "delta" "bound" "spread" "verdict";
  let regressions = ref 0 in
  List.iter
    (fun name ->
      List.iter
        (fun (m : Spec.metric) ->
          match (e2e_values old_runs name m.Spec.name, e2e_values new_runs name m.Spec.name) with
          | [], _ | _, [] -> ()
          | old, cur ->
              let mo, mn, delta, spread, label = verdict m ~old ~cur in
              if label = "regressed" then incr regressions;
              Printf.printf "%-14s %-22s %12.6g %12.6g %+7.1f%% %5.0f%% %6.1f%%  %s\n" name
                m.Spec.name mo mn (100. *. delta) (100. *. Spec.bound) (100. *. spread) label)
        Spec.end_to_end;
      match (error_fracs old_runs name, error_fracs new_runs name) with
      | [], _ | _, [] -> ()
      | old, cur ->
          let worst = List.fold_left Float.max 0. in
          let rose = worst cur > worst old in
          if rose then incr regressions;
          Printf.printf "%-14s %-22s %12.6g %12.6g %8s %6s %7s  %s\n" name "error_frac" (worst old)
            (worst cur) "" "0%" "" (if rose then "regressed" else "unchanged"))
    Spec.workload_names;
  if !regressions > 0 then begin
    Printf.printf "%d regression(s)\n" !regressions;
    exit 1
  end
