(* An interactive line-oriented REPL around the planner.

   dune exec bin/vplan_repl.exe

   Commands:
     query <rule>.        set the query
     view <rule>.         add a view definition
     fact <atom>.         add a base fact
     load <file>          load a program (first rule = query, rest views)
     data <file>          load base facts
     show                 print the current problem and database size
     rewrite [all]        GMRs (or all minimal rewritings)
     plan m1|m2|m3        cost-based plan over the current base facts
     answer               evaluate the query directly over the base facts
     certain              certain answers via inverse rules
     reset                clear everything
     help                 this text
     quit                 exit *)

type state = {
  mutable query : Vplan.Query.t option;
  mutable views : Vplan.View.t list;
  mutable base : Vplan.Database.t;
  mutable timeout_ms : float option;
  mutable max_steps : int option;
  mutable max_covers : int option;
  (* view-side preprocessing (equivalence classes), kept across commands
     so repeated rewrites don't regroup the same views; extended
     incrementally by [view], dropped on [load]/[reset] *)
  mutable catalog : Vplan.Catalog.t option;
}

let state =
  {
    query = None;
    views = [];
    base = Vplan.Database.empty;
    timeout_ms = None;
    max_steps = None;
    max_covers = None;
    catalog = None;
  }

let help () =
  print_endline
    "commands: query <rule>. | view <rule>. | fact <atom>. | load FILE | data FILE\n\
    \          show | rewrite [all] | plan m1|m2|m3 | answer | certain | reset | help | quit\n\
    \          set timeout MS | set max-steps N | set max-covers N | set off"

let parse_error e = Format.printf "error: %s@." (Vplan.Vplan_error.parse_to_string e)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_query f =
  match state.query with
  | None -> print_endline "no query set (use: query q(X) :- p(X).)"
  | Some query -> f query

let cmd_query rest =
  match Vplan.Parser.parse_rule rest with
  | Ok q ->
      state.query <- Some q;
      Format.printf "query: %a@." Vplan.Query.pp q
  | Error e -> parse_error e

let cmd_view rest =
  match Vplan.Parser.parse_rule rest with
  | Ok v -> (
      match Vplan.View.validate_set (v :: state.views) with
      | Ok () ->
          state.views <- state.views @ [ v ];
          (match state.catalog with
          | Some c -> (
              match Vplan.Catalog.add_views c [ v ] with
              | Ok c' -> state.catalog <- Some c'
              | Error _ -> state.catalog <- None)
          | None -> ());
          Format.printf "view: %a@." Vplan.Query.pp v
      | Error e -> Format.printf "error: %s@." e)
  | Error e -> parse_error e

let cmd_fact rest =
  match Vplan.Parser.parse_facts rest with
  | Ok facts ->
      List.iter
        (fun (pred, tuple) -> state.base <- Vplan.Database.add_fact pred tuple state.base)
        facts;
      Format.printf "%d fact(s) added@." (List.length facts)
  | Error e -> parse_error e

let cmd_load path =
  match Vplan.Planner.parse_problem (read_file path) with
  | Ok p ->
      state.query <- Some p.Vplan.Planner.query;
      state.views <- p.Vplan.Planner.views;
      state.catalog <- None;
      Format.printf "loaded query + %d view(s)@." (List.length p.views)
  | Error e -> Format.printf "error: %s@." e
  | exception Sys_error e -> Format.printf "error: %s@." e

let cmd_data path =
  match Vplan.Parser.parse_facts (read_file path) with
  | Ok facts ->
      state.base <- Vplan.Database.of_facts facts;
      Format.printf "loaded %d fact(s)@." (List.length facts)
  | Error e -> parse_error e
  | exception Sys_error e -> Format.printf "error: %s@." e

let cmd_show () =
  (match state.query with
  | Some q -> Format.printf "query: %a@." Vplan.Query.pp q
  | None -> print_endline "query: (unset)");
  List.iter (fun v -> Format.printf "view:  %a@." Vplan.Query.pp v) state.views;
  Format.printf "base facts: %d@." (Vplan.Database.total_size state.base)

let budget_of_state () =
  if state.timeout_ms = None && state.max_steps = None then None
  else
    (* a fresh budget per command: limits apply to each run, not the
       whole session *)
    Some (Vplan.Budget.create ?deadline_ms:state.timeout_ms ?max_steps:state.max_steps ())

(* The grouped view classes survive across commands: first rewrite pays
   for the grouping, later ones reuse it (until the view set changes). *)
let catalog_of_state ?budget () =
  match state.catalog with
  | Some c -> c
  | None ->
      let c = Vplan.Catalog.create_exn ?budget state.views in
      state.catalog <- Some c;
      c

let cmd_rewrite all =
  with_query (fun query ->
      let budget = budget_of_state () in
      let view_classes = Vplan.Catalog.view_classes (catalog_of_state ?budget ()) in
      let result =
        if all then
          Vplan.Corecover.all_minimal ?budget ?max_results:state.max_covers
            ~view_classes ~query ~views:state.views ()
        else
          Vplan.Corecover.gmrs ?budget ?max_covers:state.max_covers ~view_classes
            ~query ~views:state.views ()
      in
      (match result.rewritings with
      | [] -> print_endline "no equivalent rewriting"
      | rs -> List.iter (fun p -> Format.printf "%a@." Vplan.Query.pp p) rs);
      match result.completeness with
      | Vplan.Corecover.Complete -> ()
      | Vplan.Corecover.Truncated reason ->
          Format.printf "(truncated: %s)@." (Vplan.Vplan_error.to_string reason))

let cmd_set rest =
  match String.split_on_char ' ' rest |> List.filter (fun s -> s <> "") with
  | [ "off" ] ->
      state.timeout_ms <- None;
      state.max_steps <- None;
      state.max_covers <- None;
      print_endline "budget off"
  | [ "timeout"; ms ] -> (
      match float_of_string_opt ms with
      | Some v when v > 0. ->
          state.timeout_ms <- Some v;
          Format.printf "timeout: %gms@." v
      | _ -> print_endline "usage: set timeout MS")
  | [ "max-steps"; n ] -> (
      match int_of_string_opt n with
      | Some v when v > 0 ->
          state.max_steps <- Some v;
          Format.printf "max-steps: %d@." v
      | _ -> print_endline "usage: set max-steps N")
  | [ "max-covers"; n ] -> (
      match int_of_string_opt n with
      | Some v when v > 0 ->
          state.max_covers <- Some v;
          Format.printf "max-covers: %d@." v
      | _ -> print_endline "usage: set max-covers N")
  | _ -> print_endline "usage: set timeout MS | set max-steps N | set max-covers N | set off"

let cmd_plan model =
  with_query (fun query ->
      (* [print c] shows the choice, [answer img c] executes it over the
         context's view image *)
      let report model ~print ~answer =
        let budget = budget_of_state () in
        let ctx =
          Vplan.Optimizer.create
            ~view_classes:(Vplan.Catalog.view_classes (catalog_of_state ?budget ()))
            ~views:state.views state.base
        in
        let r, choice =
          Vplan.Optimizer.plan ?budget ?max_covers:state.max_covers model ctx query
        in
        (match choice with
        | None -> print_endline "no rewriting"
        | Some c ->
            print c;
            Format.printf "answer: %a@." Vplan.Relation.pp
              (answer (Vplan.Optimizer.image ctx) c));
        match r.Vplan.Corecover.completeness with
        | Vplan.Corecover.Complete -> ()
        | Vplan.Corecover.Truncated reason ->
            Format.printf "(truncated: %s)@." (Vplan.Vplan_error.to_string reason)
      in
      let rewriting (c : _ Vplan.Select.choice) =
        Format.printf "rewriting: %a@." Vplan.Query.pp c.rewriting
      in
      let answers img (c : _ Vplan.Select.choice) = Vplan.Exec.answers img c.rewriting in
      match model with
      | "m1" -> report Vplan.Optimizer.M1 ~print:rewriting ~answer:answers
      | "m2" ->
          report (Vplan.Optimizer.M2 Vplan.Optimizer.Exact) ~answer:answers ~print:(fun c ->
              rewriting c;
              Format.printf "order:";
              List.iter (fun a -> Format.printf " %a" Vplan.Atom.pp a) c.plan;
              Format.printf "@.cost: %d cells@." (int_of_float c.cost))
      | "m3" ->
          report (Vplan.Optimizer.M3 `Heuristic)
            ~print:(fun c ->
              rewriting c;
              Format.printf "plan: %a@.cost: %d cells@." Vplan.M3.pp_plan c.plan
                (int_of_float c.cost))
            ~answer:(fun img c -> Vplan.M3.answers img ~head:c.rewriting.Vplan.Query.head c.plan)
      | _ -> print_endline "usage: plan m1|m2|m3")

let cmd_answer () =
  with_query (fun query ->
      let base = Vplan.Interned.of_database state.base in
      Format.printf "%a@." Vplan.Relation.pp (Vplan.Exec.answers base query))

let cmd_certain () =
  with_query (fun query ->
      let view_db = Vplan.Materialize.views state.base state.views in
      Format.printf "%a@." Vplan.Relation.pp
        (Vplan.Inverse_rules.certain_answers ~views:state.views ~query view_db))

let split_command line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
      ( String.sub line 0 i,
        String.trim (String.sub line (i + 1) (String.length line - i - 1)) )

let handle line =
  let line = String.trim line in
  if line = "" then true
  else
    let cmd, rest = split_command line in
    match cmd with
    | "quit" | "exit" -> false
    | "help" -> help (); true
    | "query" -> cmd_query rest; true
    | "view" -> cmd_view rest; true
    | "fact" -> cmd_fact rest; true
    | "load" -> cmd_load rest; true
    | "data" -> cmd_data rest; true
    | "show" -> cmd_show (); true
    | "set" -> cmd_set rest; true
    | "rewrite" -> cmd_rewrite (rest = "all"); true
    | "plan" -> cmd_plan rest; true
    | "answer" -> cmd_answer (); true
    | "certain" -> cmd_certain (); true
    | "reset" ->
        state.query <- None;
        state.views <- [];
        state.base <- Vplan.Database.empty;
        state.catalog <- None;
        print_endline "cleared";
        true
    | other ->
        Format.printf "unknown command %S (try: help)@." other;
        true

(* Fault containment: a command that raises must not kill the session.
   Typed errors, Invalid_argument/Failure (legacy guards) and file-system
   errors print one line; everything else is reported with its exception
   text.  Only End_of_file and quit end the loop. *)
let handle_safe line =
  try handle line with
  | Vplan.Vplan_error.Error e ->
      Format.printf "error: %s@." (Vplan.Vplan_error.to_string e);
      true
  | Invalid_argument msg | Failure msg | Sys_error msg ->
      Format.printf "error: %s@." msg;
      true

let () =
  let interactive = Unix.isatty Unix.stdin in
  if interactive then print_endline "vplan repl \u{2014} type 'help' for commands";
  let rec loop () =
    if interactive then (print_string "vplan> "; flush stdout);
    match input_line stdin with
    | line -> if handle_safe line then loop ()
    | exception End_of_file -> ()
  in
  loop ()
