(* Open-world fallback: maximally-contained rewritings and certain
   answers (Section 8 / related-work algorithms).

   Run with:  dune exec examples/open_world.exe

   When the views cannot express the whole query, no equivalent rewriting
   exists; the best any plan can do is compute the certain answers.  Two
   independent algorithms are shown computing them — MiniCon's
   maximally-contained union of conjunctive queries, and the
   inverse-rules algorithm with Skolem terms — and they agree. *)

open Vplan

let rule = Parser.parse_rule_exn

(* Flight connections: the query asks for two-hop routes, but the only
   sources expose (a) direct flights out of hub airports and (b) an
   opaque list of reachable destinations. *)
let query = rule "q(X, Z) :- flight(X, Y), flight(Y, Z)."

let views =
  List.map rule
    [
      "from_hub(H, D) :- flight(H, D), hub(H).";
      "hubs(H) :- hub(H).";
      "legs(X, Y) :- flight(X, Y).";
    ]

let base =
  Database.of_facts
    (List.map
       (fun (p, args) -> (p, List.map (fun s -> Term.Str s) args))
       [
         ("flight", [ "sfo"; "ord" ]);
         ("flight", [ "ord"; "jfk" ]);
         ("flight", [ "jfk"; "lhr" ]);
         ("flight", [ "sjc"; "sfo" ]);
         ("hub", [ "ord" ]);
         ("hub", [ "jfk" ]);
       ])

let () =
  Format.printf "query: %a@." Query.pp query;
  List.iter (fun v -> Format.printf "view:  %a@." Query.pp v) views;

  (* The full-information view [legs] makes an equivalent rewriting
     possible; remove it to force the open world. *)
  let restricted = List.filter (fun v -> View.name v <> "legs") views in
  Format.printf "@.with all views, equivalent rewriting exists: %b@."
    (Corecover.has_rewriting ~query ~views);
  Format.printf "without 'legs', equivalent rewriting exists: %b@."
    (Corecover.has_rewriting ~query ~views:restricted);

  let img = Materialize.image base restricted in

  (* 1. MiniCon's maximally-contained union *)
  (match Minicon.maximally_contained ~query ~views:restricted () with
  | None -> Format.printf "no contained rewriting at all@."
  | Some union ->
      Format.printf "@.maximally-contained union (%d disjunct(s)):@."
        (List.length (Ucq.disjuncts union));
      Format.printf "%a@." Ucq.pp union;
      Format.printf "answers via the union: %a@." Relation.pp
        (Exec.answers_ucq img union));

  (* 2. Inverse rules: recover a Skolemized base and evaluate *)
  let rules = Inverse_rules.invert restricted in
  Format.printf "@.inverse rules:@.";
  List.iter
    (fun (head, view_atom) ->
      Format.printf "  %a :- %a@." Atom.pp head Atom.pp view_atom)
    rules;
  let view_db = Interned.database img in
  let certain = Inverse_rules.certain_answers ~views:restricted ~query view_db in
  Format.printf "certain answers via inverse rules: %a@." Relation.pp certain;

  (* 3. Ground truth for comparison *)
  Format.printf "@.true answer over the base data: %a@." Relation.pp
    (Exec.answers (Interned.of_database base) query);

  (* 4. The planner API does the fallback automatically *)
  match
    Planner.answer_via_views { Planner.query; views = restricted } ~base
  with
  | `Fallback_certain answer ->
      Format.printf "planner fallback (certain answers): %a@." Relation.pp answer
  | `Equivalent _ -> Format.printf "unexpected equivalent plan@."
  | `No_rewriting -> Format.printf "no rewriting@."
