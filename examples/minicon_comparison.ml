(* CoreCover vs MiniCon vs the bucket algorithm (Section 4.3 and
   Example 4.2).

   Run with:  dune exec examples/minicon_comparison.exe

   MiniCon's MCDs carry a *minimal* set of covered query subgoals so that
   combinations never overlap; CoreCover's tuple-cores are *maximal* and
   may overlap.  On Example 4.2 this means MiniCon can only produce
   3-subgoal combinations while CoreCover finds the single-subgoal GMR. *)

open Vplan

let k = 3

let () =
  (* Build Example 4.2 for k pairs a_i/b_i. *)
  let pair i = Printf.sprintf "a%d(X, Z%d), b%d(Z%d, Y)" i i i i in
  let body = String.concat ", " (List.init k (fun i -> pair (i + 1))) in
  let query = Parser.parse_rule_exn (Printf.sprintf "q(X, Y) :- %s." body) in
  let big_view = Parser.parse_rule_exn (Printf.sprintf "v(X, Y) :- %s." body) in
  let small_views =
    List.init (k - 1) (fun i ->
        Parser.parse_rule_exn (Printf.sprintf "v%d(X, Y) :- %s." (i + 1) (pair (i + 1))))
  in
  let views = big_view :: small_views in
  Format.printf "query: %a@." Query.pp query;
  List.iter (fun v -> Format.printf "view:  %a@." Query.pp v) views;

  (* CoreCover *)
  let cc = Corecover.gmrs ~query ~views () in
  Format.printf "@.CoreCover tuple-cores:@.";
  List.iter
    (fun (tv, core) ->
      Format.printf "  %a covers %d subgoal(s)@." View_tuple.pp tv
        (List.length core.Tuple_core.subgoals))
    cc.cores;
  Format.printf "CoreCover GMRs:@.";
  List.iter (fun p -> Format.printf "  %a@." Query.pp p) cc.rewritings;

  (* MiniCon *)
  let mc = Minicon.run ~query ~views () in
  Format.printf "@.MiniCon MCDs (%d):@." (List.length mc.mcds);
  List.iter (fun m -> Format.printf "  %a@." Minicon.pp_mcd m) mc.mcds;
  Format.printf "MiniCon combinations (%d), subgoal counts: %s@."
    (List.length mc.rewritings)
    (String.concat ", "
       (List.map
          (fun (p : Query.t) -> string_of_int (List.length p.body))
          mc.rewritings));
  Format.printf "...of which equivalent under the closed world: %d@."
    (List.length mc.equivalent);

  (* Bucket *)
  let b = Oracle.Bucket.run ~mode:`Equivalent ~query ~views () in
  Format.printf "@.Bucket: %d candidates checked, %d equivalent rewritings@."
    b.candidates_checked (List.length b.rewritings);

  (* The punchline. *)
  let smallest l =
    List.fold_left (fun acc (p : Query.t) -> min acc (List.length p.body)) max_int l
  in
  Format.printf "@.smallest rewriting: CoreCover %d subgoal(s), MiniCon %d subgoal(s)@."
    (smallest cc.rewritings) (smallest mc.rewritings)
