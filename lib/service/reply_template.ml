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

(* A loop, not a local recursive function: [render] reads a varint per
   hole and per atom use, and a closure over [s] and [i] would be
   allocated on every read. *)
let read_varint s i =
  let acc = ref 0 and shift = ref 0 and more = ref true in
  while !more do
    let c = Char.code (String.unsafe_get s !i) in
    incr i;
    acc := !acc lor ((c land 0x7f) lsl !shift);
    shift := !shift + 7;
    more := c >= 0x80
  done;
  !acc

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

(* One fill scratch per domain, kept between renders: each fragment is
   filled into [filled] once and copied from there per use, so a render
   allocates nothing the size of its reply.  [filled] keeps what it grew
   to up to [max_retained] bytes, the serving tier's reply-buffer
   ceiling; a larger fill is served, then dropped for a fresh
   [initial_fill]. *)
type scratch = { mutable filled : Bytes.t; mutable ends : int array }

let initial_fill = 4096
let max_retained = 1 lsl 20

let scratch =
  Domain.DLS.new_key (fun () ->
      { filled = Bytes.create initial_fill; ends = Array.make 64 0 })

let render buf t names =
  let s = Domain.DLS.get scratch in
  let n = (Array.length t.bounds / 2) - 1 in
  if Array.length s.ends <= n then s.ends <- Array.make (2 * (n + 1)) 0;
  let len = ref 0 in
  let add str off k =
    if !len + k > Bytes.length s.filled then begin
      let grown = Bytes.create (max (!len + k) (2 * Bytes.length s.filled)) in
      Bytes.blit s.filled 0 grown 0 !len;
      s.filled <- grown
    end;
    Bytes.blit_string str off s.filled !len k;
    len := !len + k
  in
  for k = 0 to n - 1 do
    let pos = ref t.bounds.(2 * k) and i = ref t.bounds.((2 * k) + 1) in
    while !i < t.bounds.((2 * k) + 3) do
      let gap = read_varint t.holes i in
      let slot = read_varint t.holes i in
      add t.text !pos gap;
      add names.(slot) 0 (String.length names.(slot));
      pos := !pos + gap
    done;
    add t.text !pos (t.bounds.((2 * k) + 2) - !pos);
    s.ends.(k + 1) <- !len
  done;
  let piece k =
    Buffer.add_subbytes buf s.filled s.ends.(k) (s.ends.(k + 1) - s.ends.(k))
  in
  (* [Query.pp]'s layout *)
  let i = ref 0 in
  while !i < String.length t.lines do
    let atoms = read_varint t.lines i in
    piece 0;
    Buffer.add_string buf " :- ";
    for j = 1 to atoms do
      if j > 1 then Buffer.add_string buf ", ";
      piece (read_varint t.lines i)
    done;
    Buffer.add_char buf '\n'
  done;
  if Bytes.length s.filled > max_retained then s.filled <- Bytes.create initial_fill
