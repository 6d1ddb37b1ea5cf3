(* Just enough JSON for the benchmark: the result files it writes, the
   ones [compare] reads back, and the server's one-line [stats --json].
   No JSON library ships with the toolchain, and the subset needed —
   objects, arrays, strings without unicode escapes, numbers, booleans,
   null — fits in a page. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip () =
    if !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t' || s.[!pos] = '\r')
    then (incr pos; skip ())
  in
  let expect c =
    skip ();
    if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (pos := !pos + String.length word; v)
    else fail "bad literal"
  in
  let string_body () =
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' when !pos + 1 < n ->
          (match s.[!pos + 1] with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | c -> Buffer.add_char b c);
          pos := !pos + 2;
          go ()
      | c -> Buffer.add_char b c; incr pos; go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    skip ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' -> incr pos; Obj (members ())
    | '[' -> incr pos; Arr (elements ())
    | '"' -> incr pos; Str (string_body ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !pos in
        while
          !pos < n
          && match s.[!pos] with
             | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
             | _ -> false
        do incr pos done;
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f -> Num f
        | None -> fail "bad number")
  and members () =
    skip ();
    if !pos < n && s.[!pos] = '}' then (incr pos; [])
    else
      let rec go acc =
        expect '"';
        let k = string_body () in
        expect ':';
        let v = value () in
        skip ();
        if !pos < n && s.[!pos] = ',' then (incr pos; go ((k, v) :: acc))
        else (expect '}'; List.rev ((k, v) :: acc))
      in
      go []
  and elements () =
    skip ();
    if !pos < n && s.[!pos] = ']' then (incr pos; [])
    else
      let rec go acc =
        let v = value () in
        skip ();
        if !pos < n && s.[!pos] = ',' then (incr pos; go (v :: acc))
        else (expect ']'; List.rev (v :: acc))
      in
      go []
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing bytes";
  v

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_float = function Num f -> Some f | _ -> None

let num_field key j = Option.bind (member key j) to_float

(* Every number is printed with all its digits: the values are
   measurements, and rounding them would hide run-to-run variation. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let quote s = "\"" ^ Vplan.Trace.json_escape s ^ "\""

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> number f
  | Str s -> quote s
  | Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj kvs ->
      "{"
      ^ String.concat ", " (List.map (fun (k, v) -> quote k ^ ": " ^ to_string v) kvs)
      ^ "}"

(* Multi-line rendering for files people read and diff: one member per
   line, arrays and objects of scalars kept on one line. *)
let rec pretty ?(indent = 0) v =
  let pad k = String.make k ' ' in
  let scalar = function Obj _ | Arr _ -> false | _ -> true in
  match v with
  | Obj kvs when List.for_all (fun (_, v) -> scalar v) kvs -> to_string v
  | Obj kvs ->
      "{\n"
      ^ String.concat ",\n"
          (List.map
             (fun (k, v) -> pad (indent + 2) ^ quote k ^ ": " ^ pretty ~indent:(indent + 2) v)
             kvs)
      ^ "\n" ^ pad indent ^ "}"
  | Arr l when List.for_all scalar l -> to_string v
  | Arr l ->
      "[\n"
      ^ String.concat ",\n"
          (List.map (fun v -> pad (indent + 2) ^ pretty ~indent:(indent + 2) v) l)
      ^ "\n" ^ pad indent ^ "]"
  | v -> to_string v
