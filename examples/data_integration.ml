(* Data integration: answering a mediated-schema query from materialized
   sources.

   Run with:  dune exec examples/data_integration.exe

   The mediated schema describes a bibliography; the integration system
   cannot touch the base relations, only the sources, each of which is a
   conjunctive view.  Under the closed-world assumption (sources are
   complete), CoreCover produces the equivalent rewritings over the
   sources and the optimizer picks the cheapest physical plan.  Mirrored
   sources (same definition, different name) are detected as one
   equivalence class. *)

open Vplan

let rule = Parser.parse_rule_exn

(* Mediated schema:
     wrote(Author, Paper), paper(Paper, Year), cites(Citing, Cited) *)
let query =
  (* authors who in 2020 wrote a paper citing some paper by turing *)
  rule
    "q(A, P) :- wrote(A, P), paper(P, 2020), cites(P, P2), wrote(turing, P2)."

let sources =
  List.map rule
    [
      (* a digital library exporting author-year pairs *)
      "dblib(A, P, Y) :- wrote(A, P), paper(P, Y).";
      (* a citation index *)
      "citidx(P1, P2) :- cites(P1, P2).";
      (* a mirror of the citation index (equivalent source) *)
      "citidx_mirror(X, Y) :- cites(X, Y).";
      (* an author-centric catalogue: who wrote what *)
      "catalog(A, P) :- wrote(A, P).";
      (* a curated feed dedicated to citations of turing's papers *)
      "turing_feed(P) :- cites(P, P2), wrote(turing, P2).";
    ]

(* A synthetic instance standing in for the sources' hidden base data. *)
let base =
  let rng = Prng.create 2020 in
  let authors = [ "turing"; "codd"; "hoare"; "dijkstra"; "liskov" ] in
  let db = ref Database.empty in
  let add p args = db := Database.add_fact p args !db in
  for p = 1 to 60 do
    add "paper" [ Term.Int p; Term.Int (2015 + Prng.int rng 8) ];
    add "wrote" [ Term.Str (Prng.pick rng authors); Term.Int p ];
    (* a few citations per paper *)
    for _ = 1 to 2 do
      add "cites" [ Term.Int p; Term.Int (1 + Prng.int rng 60) ]
    done
  done;
  !db

let () =
  Format.printf "mediated query: %a@." Query.pp query;
  List.iter (fun v -> Format.printf "source: %a@." Query.pp v) sources;

  let r = Corecover.all_minimal ~query ~views:sources () in
  Format.printf "@.source equivalence classes: %d (of %d sources)@."
    r.stats.num_view_classes r.stats.num_views;
  Format.printf "minimal rewritings over the sources:@.";
  List.iter (fun p -> Format.printf "  %a@." Query.pp p) r.rewritings;

  let ctx = Optimizer.create ~views:sources base in
  (match Optimizer.plan Optimizer.M1 ctx query with
  | _, Some c -> Format.printf "@.fewest-joins rewriting (M1): %a@." Query.pp c.rewriting
  | _, None -> Format.printf "@.no rewriting@.");
  let _, m2 = Optimizer.plan (Optimizer.M2 Optimizer.Exact) ctx query in
  (match m2 with
  | Some c ->
      Format.printf "M2-optimal rewriting: %a@." Query.pp c.rewriting;
      Format.printf "  join order:";
      List.iter (fun a -> Format.printf " %a" Atom.pp a) c.plan;
      Format.printf "@.  cost: %.0f cells@." c.cost
  | None -> ());

  (* soundness: execute over the materialized sources *)
  let truth = Eval.answers base query in
  Format.printf "@.query answer: %d tuples@." (Relation.cardinality truth);
  match m2 with
  | Some c ->
      let via_sources =
        Materialize.answers_via_rewriting (Optimizer.view_database ctx) c.rewriting
      in
      Format.printf "via sources:  %d tuples (%s)@."
        (Relation.cardinality via_sources)
        (if Relation.equal truth via_sources then "identical" else "MISMATCH")
  | None -> ()
