(* The literal bytes live in one string; the holes are a packed varint
   stream of (gap, slot) pairs, where [gap] counts the literal bytes
   since the previous hole.  One boxed string per segment would cost
   several times the packed form in resident memory: a header and
   padding per segment, against one or two bytes per hole. *)

open Vplan_cq

type t = { text : string; holes : string }

let add_varint b n =
  let rec go n =
    if n < 0x80 then Buffer.add_char b (Char.unsafe_chr n)
    else begin
      Buffer.add_char b (Char.unsafe_chr (n land 0x7f lor 0x80));
      go (n lsr 7)
    end
  in
  go n

let make ~vars rewritings =
  let slot = Hashtbl.create (Array.length vars) in
  Array.iteri (fun i x -> Hashtbl.replace slot x i) vars;
  let text = Buffer.create 256 and holes = Buffer.create 64 in
  let last = ref 0 in
  let term = function
    | Term.Var x -> (
        match Hashtbl.find_opt slot x with
        | Some i ->
            add_varint holes (Buffer.length text - !last);
            add_varint holes i;
            last := Buffer.length text
        | None -> Buffer.add_string text x)
    | Term.Cst (Term.Str s) -> Buffer.add_string text s
    | Term.Cst (Term.Int i) -> Buffer.add_string text (string_of_int i)
  in
  (* [Query.pp]'s layout: no break hints, so [Format] never wraps it *)
  let atom (a : Atom.t) =
    Buffer.add_string text a.Atom.pred;
    Buffer.add_char text '(';
    List.iteri
      (fun i t ->
        if i > 0 then Buffer.add_char text ',';
        term t)
      a.Atom.args;
    Buffer.add_char text ')'
  in
  List.iter
    (fun (q : Query.t) ->
      atom q.Query.head;
      Buffer.add_string text " :- ";
      List.iteri
        (fun i a ->
          if i > 0 then Buffer.add_string text ", ";
          atom a)
        q.Query.body;
      Buffer.add_char text '\n')
    rewritings;
  { text = Buffer.contents text; holes = Buffer.contents holes }

let render buf t names =
  let pos = ref 0 and i = ref 0 in
  let varint () =
    let rec go shift acc =
      let c = Char.code (String.unsafe_get t.holes !i) in
      incr i;
      let acc = acc lor ((c land 0x7f) lsl shift) in
      if c < 0x80 then acc else go (shift + 7) acc
    in
    go 0 0
  in
  while !i < String.length t.holes do
    let gap = varint () in
    let slot = varint () in
    Buffer.add_substring buf t.text !pos gap;
    Buffer.add_string buf names.(slot);
    pos := !pos + gap
  done;
  Buffer.add_substring buf t.text !pos (String.length t.text - !pos)
