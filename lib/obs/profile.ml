(* Operator profiles for the execution engine, recorded as trace spans.

   A profile is built by one domain for one execution: [step] opens an
   operator under the innermost open one, times the wrapped function,
   and closes it into a finished {!Trace.span} whose name is the
   operator's label and whose annotations are its row counts.  Every
   entry point takes an [option] so the disabled path ([None] threaded
   through the engine) is a single pattern match per site — the
   {!Trace} discipline, enforced by types instead of a global flag. *)

type op = {
  id : int;
  parent : int;
  label : string;
  start : float; (* offset from the profile start *)
  mutable kv : (string * float) list; (* reverse recording order *)
}

type t = {
  t0 : float;
  root : op;
  mutable next : int;
  mutable stack : op list; (* innermost open operator first; root at bottom *)
  mutable spans : Trace.span list; (* finished, in closing order *)
}

let now_ms () = Unix.gettimeofday () *. 1000.

let label op name detail =
  let arg = if detail <> "" then detail else name in
  if arg = "" then op else op ^ " " ^ arg

let create ?(name = "") () =
  let root = { id = 0; parent = -1; label = label "query" name ""; start = 0.; kv = [] } in
  { t0 = now_ms (); root; next = 1; stack = [ root ]; spans = [] }

let close p o =
  let stop = now_ms () -. p.t0 in
  p.spans <-
    {
      Trace.id = o.id;
      parent = o.parent;
      name = o.label;
      start_ms = o.start;
      dur_ms = stop -. o.start;
      domain = (Domain.self () :> int);
      kv = List.rev o.kv;
    }
    :: p.spans

let step p ~op ?(name = "") ?(detail = "") f =
  match p with
  | None -> f None
  | Some p ->
      let parent = match p.stack with top :: _ -> top.id | [] -> p.root.id in
      let o =
        { id = p.next; parent; label = label op name detail; start = now_ms () -. p.t0; kv = [] }
      in
      p.next <- p.next + 1;
      p.stack <- o :: p.stack;
      let finish () =
        close p o;
        match p.stack with top :: rest when top == o -> p.stack <- rest | _ -> ()
      in
      Fun.protect ~finally:finish (fun () -> f (Some o))

let set o key v =
  match o with
  | None -> ()
  | Some o -> o.kv <- (key, v) :: List.remove_assoc key o.kv

let finish p =
  close p p.root;
  p.stack <- [];
  (* ids are drawn at open, so id order is execution preorder *)
  List.sort (fun (a : Trace.span) b -> Int.compare a.id b.id) p.spans

(* Both sides floored at one tuple: estimating 0.3 rows for an empty
   result is a perfect guess, not a division by zero. *)
let qerror ~est ~actual =
  if Float.is_nan est then Float.nan
  else
    let e = Float.max est 1. in
    let a = Float.max (float_of_int (max actual 0)) 1. in
    Float.max (e /. a) (a /. e)

let field (s : Trace.span) key = List.assoc_opt key s.kv

(* An estimator may answer [nan]: that is no estimate. *)
let est_rows s =
  Option.bind (field s "est_rows") (fun e -> if Float.is_nan e then None else Some e)

(* The q-error of an operator carrying both an estimate and an actual
   row count. *)
let span_qerror s =
  match (est_rows s, field s "rows_out") with
  | Some est, Some out -> Some (qerror ~est ~actual:(int_of_float out))
  | _ -> None

let max_qerror spans =
  List.fold_left
    (fun acc s ->
      match span_qerror s with
      | None -> acc
      | Some q -> if Float.is_nan acc then q else Float.max acc q)
    Float.nan spans

(* A selection's label is ["select " ^ atom], the atom rendered as
   [pred(args)]: its relation is the predicate. *)
let selection_qerrors spans =
  let prefix = "select " in
  let n = String.length prefix in
  List.filter_map
    (fun (s : Trace.span) ->
      if String.length s.name > n && String.sub s.name 0 n = prefix then
        let atom = String.sub s.name n (String.length s.name - n) in
        let rel =
          match String.index_opt atom '(' with Some i -> String.sub atom 0 i | None -> atom
        in
        Option.map (fun q -> (rel, q)) (span_qerror s)
      else None)
    spans

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let fields s =
  let b = Buffer.create 48 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let int key tag = Option.iter (fun v -> add " %s=%d" tag (int_of_float v)) (field s key) in
  int "rows_in" "in";
  int "build_rows" "build";
  int "rows_out" "out";
  Option.iter (fun est -> add " est=%.1f" est) (est_rows s);
  Option.iter (fun q -> add " q=%.2f" q) (span_qerror s);
  (match field s "partitions" with
  | Some v when v > 0. -> add " parts=%d" (int_of_float v)
  | _ -> ());
  Buffer.contents b

let line ppf indent (s : Trace.span) =
  let left = indent ^ s.name in
  let pad = max 1 (42 - String.length left) in
  Format.fprintf ppf "%s%s %s %10.3f ms@." left (String.make pad ' ') (fields s) s.dur_ms

let pp_tree ppf spans =
  List.iter
    (fun (root : Trace.span) ->
      line ppf "" root;
      Trace.pp_forest line ppf ~parent:root.id spans)
    (List.filter (fun (s : Trace.span) -> s.parent = -1) spans)
