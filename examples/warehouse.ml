(* Data warehousing: choosing among materialized join views for a star
   query, with filtering subgoals.

   Run with:  dune exec examples/warehouse.exe

   A retail warehouse maintains several denormalized materializations of
   a star schema.  The example shows (a) the GMR picking the widest
   applicable view, (b) CoreCover* exposing alternatives, and (c) a very
   selective empty-core view acting as a filter that lowers the M2 cost —
   the P2-vs-P3 effect of the paper's introduction. *)

open Vplan

let rule = Parser.parse_rule_exn

(* Star schema: a fact table and three dimensions. *)
let query =
  (* electronics sold in springfield, with the buying segment *)
  rule
    "q(O, Cust, Seg) :- sales(O, P, St, Cust), product(P, electronics), \
     store(St, springfield), customer(Cust, Seg)."

let views =
  List.map rule
    [
      (* fact x product *)
      "v_sp(O, P, St, Cust, Cat) :- sales(O, P, St, Cust), product(P, Cat).";
      (* fact x store *)
      "v_ss(O, P, St, Cust, City) :- sales(O, P, St, Cust), store(St, City).";
      (* dimension views *)
      "v_cust(Cust, Seg) :- customer(Cust, Seg).";
      "v_store(St, City) :- store(St, City).";
      "v_prod(P, Cat) :- product(P, Cat).";
      (* a fully denormalized materialization *)
      "v_wide(O, P, St, Cust, Cat, City, Seg) :- sales(O, P, St, Cust), \
       product(P, Cat), store(St, City), customer(Cust, Seg).";
      (* a very selective summary: orders of electronics in springfield *)
      "v_hot(O) :- sales(O, P, St, C2), product(P, electronics), store(St, springfield).";
    ]

let base =
  let rng = Prng.create 99 in
  let categories = [ "electronics"; "garden"; "toys"; "grocery" ] in
  let cities = [ "springfield"; "shelby"; "ogden" ] in
  let segments = [ "retail"; "wholesale" ] in
  let db = ref Database.empty in
  let add p args = db := Database.add_fact p args !db in
  for p = 1 to 40 do
    add "product" [ Term.Int p; Term.Str (Prng.pick rng categories) ]
  done;
  for s = 1 to 10 do
    add "store" [ Term.Int s; Term.Str (Prng.pick rng cities) ]
  done;
  for c = 1 to 30 do
    add "customer" [ Term.Int c; Term.Str (Prng.pick rng segments) ]
  done;
  for o = 1 to 400 do
    add "sales"
      [
        Term.Int o;
        Term.Int (1 + Prng.int rng 40);
        Term.Int (1 + Prng.int rng 10);
        Term.Int (1 + Prng.int rng 30);
      ]
  done;
  !db

let () =
  Format.printf "query: %a@." Query.pp query;
  let r = Corecover.all_minimal ~query ~views () in
  Format.printf "@.minimal rewritings (%d):@." (List.length r.rewritings);
  List.iter (fun p -> Format.printf "  %a@." Query.pp p) r.rewritings;
  Format.printf "filter candidates:";
  List.iter (fun tv -> Format.printf " %a" View_tuple.pp tv) r.filters;
  Format.printf "@.";

  let ctx = Optimizer.create ~views base in
  (match Optimizer.plan Optimizer.M1 ctx query with
  | _, Some c -> Format.printf "@.M1 (fewest joins): %a@." Query.pp c.rewriting
  | _, None -> ());
  (* the selection engine alone, over the same candidates, to show what
     the filters buy *)
  (match
     Select.m2 ~rank:(Optimizer.estimate ctx)
       (M2.exact (Optimizer.image ctx))
       r.rewritings
   with
  | Some c ->
      Format.printf "M2 without filters: cost %.0f for %a@." c.cost Query.pp c.rewriting
  | None -> ());
  (match Optimizer.plan (Optimizer.M2 Optimizer.Exact) ctx query with
  | _, Some c ->
      Format.printf "M2 with filters:    cost %.0f for %a@." c.cost Query.pp c.rewriting;
      let result = Exec.answers (Optimizer.image ctx) c.rewriting in
      let truth = Exec.answers (Interned.of_database base) query in
      Format.printf "@.answer: %d tuples (%s)@."
        (Relation.cardinality result)
        (if Relation.equal result truth then "matches the query" else "MISMATCH")
  | _, None -> ());
  match Optimizer.plan (Optimizer.M3 `Heuristic) ctx query with
  | _, Some c ->
      Format.printf "M3 heuristic:       cost %.0f, plan %a@." c.cost M3.pp_plan c.plan
  | _, None -> ()
