(* A fragment table plus one line per cover.  Fragment 0 is the head;
   fragment k > 0 is a view-tuple atom, numbered in order of first use.
   Fragment k's literal bytes are [text] from [bounds.(2k)] to
   [bounds.(2k + 2)], and its holes are [holes] from [bounds.(2k + 1)] to
   [bounds.(2k + 3)]: a packed varint stream of (gap, slot) pairs, where
   [gap] counts the literal bytes since the fragment's previous hole.
   [lines] is a packed varint stream holding, per line, the body length
   and then the body's fragment indices.  One boxed string per fragment
   or line would cost several times the packed form in resident memory:
   a header and padding each, against one or two bytes per index. *)

open Vplan_cq

type t = { text : string; holes : string; bounds : int array; lines : string }

let add_varint b n =
  let rec go n =
    if n < 0x80 then Buffer.add_char b (Char.unsafe_chr n)
    else begin
      Buffer.add_char b (Char.unsafe_chr (n land 0x7f lor 0x80));
      go (n lsr 7)
    end
  in
  go n

let read_varint s i =
  let rec go shift acc =
    let c = Char.code (String.unsafe_get s !i) in
    incr i;
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c < 0x80 then acc else go (shift + 7) acc
  in
  go 0 0

let make ~vars ~(head : Atom.t) ~atoms covers =
  let slot = Hashtbl.create (Array.length vars) in
  Array.iteri (fun i x -> Hashtbl.replace slot x i) vars;
  let text = Buffer.create 256 and holes = Buffer.create 64 in
  let bounds = ref [] in
  let mark () = bounds := Buffer.length holes :: Buffer.length text :: !bounds in
  (* [Atom.pp]'s layout: no break hints, so [Format] never wraps it *)
  let fragment (a : Atom.t) =
    mark ();
    let last = ref (Buffer.length text) in
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
    Buffer.add_string text a.Atom.pred;
    Buffer.add_char text '(';
    List.iteri
      (fun i t ->
        if i > 0 then Buffer.add_char text ',';
        term t)
      a.Atom.args;
    Buffer.add_char text ')'
  in
  fragment head;
  let frag = Array.make (Array.length atoms) 0 and next = ref 1 in
  let lines = Buffer.create 64 in
  List.iter
    (fun cover ->
      add_varint lines (List.length cover);
      List.iter
        (fun i ->
          if frag.(i) = 0 then begin
            fragment atoms.(i);
            frag.(i) <- !next;
            incr next
          end;
          add_varint lines frag.(i))
        cover)
    covers;
  mark ();
  {
    text = Buffer.contents text;
    holes = Buffer.contents holes;
    bounds = Array.of_list (List.rev !bounds);
    lines = Buffer.contents lines;
  }

let render buf t names =
  (* fill each fragment's holes once, then copy it per use *)
  let n = (Array.length t.bounds / 2) - 1 in
  let filled = Buffer.create (String.length t.text + (8 * n)) in
  let ends = Array.make (n + 1) 0 in
  for k = 0 to n - 1 do
    let pos = ref t.bounds.(2 * k) and i = ref t.bounds.((2 * k) + 1) in
    while !i < t.bounds.((2 * k) + 3) do
      let gap = read_varint t.holes i in
      let slot = read_varint t.holes i in
      Buffer.add_substring filled t.text !pos gap;
      Buffer.add_string filled names.(slot);
      pos := !pos + gap
    done;
    Buffer.add_substring filled t.text !pos (t.bounds.((2 * k) + 2) - !pos);
    ends.(k + 1) <- Buffer.length filled
  done;
  let filled = Buffer.contents filled in
  let piece k = Buffer.add_substring buf filled ends.(k) (ends.(k + 1) - ends.(k)) in
  (* [Query.pp]'s layout *)
  let i = ref 0 in
  while !i < String.length t.lines do
    let len = read_varint t.lines i in
    piece 0;
    Buffer.add_string buf " :- ";
    for j = 1 to len do
      if j > 1 then Buffer.add_string buf ", ";
      piece (read_varint t.lines i)
    done;
    Buffer.add_char buf '\n'
  done
