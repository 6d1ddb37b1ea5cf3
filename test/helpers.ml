(* Shared test helpers: parsing shortcuts, Alcotest testables, and the
   paper's running examples. *)

open Vplan

let q = Parser.parse_rule_exn
let qs rules = List.map Parser.parse_rule_exn rules

let query_testable = Alcotest.testable Query.pp Query.equal
let atom_testable = Alcotest.testable Atom.pp Atom.equal
let term_testable = Alcotest.testable Term.pp Term.equal
let relation_testable = Alcotest.testable Relation.pp Relation.equal

let check_query = Alcotest.check query_testable
let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

(* [r], after checking that every rewriting it returns is an equivalent
   rewriting of [query] using [views] (the expansion test); a
   counterexample raises [Failure]. *)
let verified ~query ~views (r : Corecover.result) =
  List.iter
    (fun p ->
      if not (Expansion.is_equivalent_rewriting ~views ~query p) then
        failwith
          (Format.asprintf "CoreCover produced a non-equivalent rewriting: %a" Query.pp p))
    r.Corecover.rewritings;
  r

(* every view tuple of [views] on [query], each with its tuple-core *)
let tuples_with_cores ~query views =
  let code, coded = View_tuple.compute_coded ~query (View_tuple.Classes.of_views views) in
  List.combine
    (List.map (fun (tv : View_tuple.coded) -> tv.tuple) coded)
    (Tuple_core.cores code coded)

(* The car-loc-part example (Example 1.1), used throughout the paper. *)
module Car_loc_part = struct
  let query = q "q1(S, C) :- car(M, anderson), loc(anderson, C), part(S, M, C)."

  let v1 = q "v1(M, D, C) :- car(M, D), loc(D, C)."
  let v2 = q "v2(S, M, C) :- part(S, M, C)."
  let v3 = q "v3(S) :- car(M, anderson), loc(anderson, C), part(S, M, C)."
  let v4 = q "v4(M, D, C, S) :- car(M, D), loc(D, C), part(S, M, C)."
  let v5 = q "v5(M, D, C) :- car(M, D), loc(D, C)."
  let views = [ v1; v2; v3; v4; v5 ]

  let p1 = q "q1(S, C) :- v1(M, anderson, C1), v1(M1, anderson, C), v2(S, M, C)."
  let p2 = q "q1(S, C) :- v1(M, anderson, C), v2(S, M, C)."
  let p3 = q "q1(S, C) :- v3(S), v1(M, anderson, C), v2(S, M, C)."
  let p4 = q "q1(S, C) :- v4(M, anderson, C, S)."
  let p5 = q "q1(S, C) :- v1(M, anderson, C1), v5(M1, anderson, C), v2(S, M, C)."

  (* A small concrete instance for the cost models. *)
  let base =
    Database.of_facts
      (List.map
         (fun (p, args) -> (p, List.map (fun s -> Term.Str s) args))
         [
           ("car", [ "honda"; "anderson" ]);
           ("car", [ "toyota"; "anderson" ]);
           ("car", [ "ford"; "baker" ]);
           ("loc", [ "anderson"; "springfield" ]);
           ("loc", [ "anderson"; "shelby" ]);
           ("loc", [ "baker"; "springfield" ]);
           ("part", [ "s1"; "honda"; "springfield" ]);
           ("part", [ "s2"; "toyota"; "shelby" ]);
           ("part", [ "s3"; "ford"; "springfield" ]);
           ("part", [ "s4"; "honda"; "shelby" ]);
         ])
end

(* Example 4.1 (Table 2). *)
module Example_4_1 = struct
  let query = q "q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)."
  let v1 = q "v1(A, B) :- a(A, B), a(B, B)."
  let v2 = q "v2(C, D) :- a(C, E), b(C, D)."
  let views = [ v1; v2 ]
end

(* Example 3.1 (chain of LMRs). *)
module Example_3_1 = struct
  let query = q "q(X, Y, Z) :- e1(X, c), e2(Y, c), e3(Z, c)."
  let view = q "v(X, Y, Z, W) :- e1(X, W), e2(Y, W), e3(Z, W)."
  let views = [ view ]

  let p1 = q "q(X, Y, Z) :- v(X, Y, Z, c)."
  let p2 = q "q(X, Y, Z) :- v(X, Y, Z1, c), v(X1, Y1, Z, c)."
  let p3 = q "q(X, Y, Z) :- v(X, Y1, Z1, c), v(X2, Y, Z2, c), v(X3, Y3, Z, c)."
end

(* Section 3.2's GMR-that-is-not-a-CMR example. *)
module Example_gmr_not_cmr = struct
  let query = q "q(X) :- e(X, X)."
  let view = q "v(A, B) :- e(A, A), e(A, B)."
  let views = [ view ]
  let p1 = q "q(X) :- v(X, B)."
  let p2 = q "q(X) :- v(X, X)."
end

(* Example 6.1 / Figure 5 (cost model M3). *)
module Example_6_1 = struct
  let query = q "q(A) :- r(A, A), t(A, B), s(B, B)."
  let v1 = q "v1(A, B) :- r(A, A), s(B, B)."
  let v2 = q "v2(A, B) :- t(A, B), s(B, B)."
  let views = [ v1; v2 ]
  let p1 = q "q(A) :- v1(A, B), v2(A, C)."
  let p2 = q "q(A) :- v1(A, B), v2(A, B)."

  let base =
    let pairs p l = List.map (fun (x, y) -> (p, [ Term.Int x; Term.Int y ])) l in
    Database.of_facts
      (pairs "r" [ (1, 1) ]
      @ pairs "s" [ (2, 2); (4, 4); (6, 6); (8, 8) ]
      @ pairs "t" [ (1, 2); (3, 4); (5, 6); (7, 8) ])
end

(* Example 4.2 (CoreCover vs MiniCon), instantiated with k = 3. *)
module Example_4_2 = struct
  let query =
    q
      "q(X, Y) :- a1(X, Z1), b1(Z1, Y), a2(X, Z2), b2(Z2, Y), a3(X, Z3), b3(Z3, Y)."

  let v = q "v(X, Y) :- a1(X, Z1), b1(Z1, Y), a2(X, Z2), b2(Z2, Y), a3(X, Z3), b3(Z3, Y)."
  let v1 = q "v1(X, Y) :- a1(X, Z1), b1(Z1, Y)."
  let v2 = q "v2(X, Y) :- a2(X, Z2), b2(Z2, Y)."
  let views = [ v; v1; v2 ]
end

(* Rewritings as the server printed them through [Format], one
   [Query.pp] per line. *)
let format_lines rewritings =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  List.iter (fun p -> Format.fprintf ppf "%a@." Query.pp p) rewritings;
  Buffer.contents buf

(* A wire reply's rewriting lines, spliced from its template. *)
let reply_lines (r : Service.reply) =
  let buf = Buffer.create 256 in
  Reply_template.render buf r.Service.reply_lines r.Service.reply_names;
  Buffer.contents buf
