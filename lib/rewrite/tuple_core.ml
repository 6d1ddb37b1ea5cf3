open Vplan_cq
open Vplan_views
module Budget = Vplan_core.Budget
module Pattern = View_tuple.Pattern

type t = {
  subgoals : Atom.t list;
  mask : int;
}

let is_empty c = c.mask = 0
let same_cover c1 c2 = c1.mask = c2.mask

let pp ppf c =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Atom.pp)
    c.subgoals

(* Definition 4.1 over codes.  A variable is fixed when it is
   distinguished or an argument of the view tuple: it must map to itself,
   as a constant does.  Every other variable is free and must map to an
   existential of the expansion, injectively; by property (3) a free
   variable drags in every subgoal using it.  A core is therefore a union
   of free-variable components (subgoals linked by shared free
   variables), and injectivity can only fail between two free variables
   sent to one existential.

   One scratch serves every tuple of a worker: each tuple's expansion is
   written over the previous one's.  Expansion atom [j] is
   [images.(image_start.(j) .. image_start.(j + 1) - 1)]: its predicate
   slot, then its argument codes, where a head variable of the view
   codes as the tuple's argument and existential view variable [v] as
   [num_terms + v - num_head_vars].  Subgoal [i] fits the expansion
   atoms [targets.(target_start.(i) .. target_start.(i + 1) - 1)].
   [assign] maps free variables to existentials and [owner] back;
   [trail] records bindings for undo. *)
type scratch = {
  code : View_tuple.Query_code.t;
  pinned : bool array;  (* per term: a constant or a distinguished variable *)
  occurrences : int array;  (* per variable, the bitmask of subgoals using it *)
  fixed : bool array;  (* per term: constants and fixed variables *)
  neighbours : int array;  (* per subgoal, itself and the subgoals sharing a free variable *)
  images : int array;
  image_start : int array;
  targets : int array;
  target_start : int array;
  assign : int array;
  owner : int array;
  trail : int array;
  mutable top : int;
  valid : int array;  (* the valid components *)
  budget : Budget.t option;
}

(* [width] bounds every count of the views' patterns, [Pattern.length] *)
let scratch ?budget (code : View_tuple.Query_code.t) width =
  let n = Array.length code.body in
  let pinned = Array.init code.num_terms (fun c -> c >= code.num_vars) in
  Array.iter (fun c -> if c < code.num_vars then pinned.(c) <- true) code.head;
  let occurrences = Array.make code.num_vars 0 in
  Array.iteri
    (fun i codes ->
      Array.iter
        (fun c -> if c < code.num_vars then occurrences.(c) <- occurrences.(c) lor (1 lsl i))
        codes)
    code.args;
  {
    code;
    pinned;
    occurrences;
    fixed = Array.make code.num_terms false;
    neighbours = Array.make n 0;
    images = Array.make width 0;
    image_start = Array.make (width + 1) 0;
    targets = Array.make (n * width) 0;
    target_start = Array.make (n + 1) 0;
    assign = Array.make code.num_vars (-1);
    owner = Array.make width (-1);
    trail = Array.make code.num_vars 0;
    top = 0;
    valid = Array.make n 0;
    budget;
  }

(* Write [tv]'s expansion into the scratch; returns its atom count *)
let expand st (tv : View_tuple.coded) =
  let p = tv.pattern and num_terms = st.code.num_terms in
  let nv = Pattern.num_vars p and nhv = Pattern.num_head_vars p in
  let o = ref (Pattern.body_start p) and w = ref 0 in
  for j = 0 to Pattern.num_atoms p - 1 do
    st.image_start.(j) <- !w;
    st.images.(!w) <- tv.slots.(j);
    for a = 0 to Pattern.atom_arity p !o - 1 do
      let c = Pattern.atom_arg p !o a in
      st.images.(!w + 1 + a) <-
        (if c >= nv then tv.consts.(c - nv)
         else if c < nhv then tv.codes.(Pattern.head_position p c)
         else num_terms + c - nhv)
    done;
    w := !w + 1 + Pattern.atom_arity p !o;
    o := Pattern.next_atom p !o
  done;
  st.image_start.(Pattern.num_atoms p) <- !w;
  Pattern.num_atoms p

(* Subgoal [i] fits expansion atom [j] when the predicates and arities
   agree, every constant and fixed variable meets itself, and every free
   variable meets an existential. *)
let rec fits_from st args start p =
  p = Array.length args
  ||
  let c = args.(p) and e = st.images.(start + p) in
  (if st.fixed.(c) then e = c else e >= st.code.num_terms) && fits_from st args start (p + 1)

let fits st i j =
  let args = st.code.args.(i) and start = st.image_start.(j) in
  st.code.slot.(i) = st.images.(start)
  && Array.length args = st.image_start.(j + 1) - start - 1
  && fits_from st args (start + 1) 0

let undo st mark =
  while st.top > mark do
    st.top <- st.top - 1;
    let v = st.trail.(st.top) in
    st.owner.(st.assign.(v) - st.code.num_terms) <- -1;
    st.assign.(v) <- -1
  done

(* Send subgoal [i] to expansion atom [j]: constants and fixed variables
   already match (the targets are filtered for it), so only the free
   variables' bindings remain to check. *)
let rec bind_from st args start p =
  p = Array.length args
  ||
  let v = args.(p) in
  (st.fixed.(v)
  ||
  let e = st.images.(start + p) and num_terms = st.code.num_terms in
  let cur = st.assign.(v) in
  if cur >= 0 then cur = e
  else if st.owner.(e - num_terms) >= 0 then false
  else begin
    st.assign.(v) <- e;
    st.owner.(e - num_terms) <- v;
    st.trail.(st.top) <- v;
    st.top <- st.top + 1;
    true
  end)
  && bind_from st args start (p + 1)

let bind st i j = bind_from st st.code.args.(i) (st.image_start.(j) + 1) 0

let rec lowest_bit m i = if m land (1 lsl i) <> 0 then i else lowest_bit m (i + 1)

(* Depth-first over the subgoals of [mask], lowest first, times each
   one's targets; [cont] runs on a complete mapping, and a [false] from
   it backtracks.  On [false] the bindings are as on entry. *)
let rec search st mask cont =
  Budget.tick st.budget;
  if mask = 0 then cont ()
  else
    let i = lowest_bit mask 0 in
    try_targets st i (mask land (mask - 1)) cont st.target_start.(i)

and try_targets st i rest cont t =
  t < st.target_start.(i + 1)
  &&
  let mark = st.top in
  (bind st i st.targets.(t) && search st rest cont)
  || begin
       undo st mark;
       try_targets st i rest cont (t + 1)
     end

let rec popcount m = if m = 0 then 0 else 1 + popcount (m land (m - 1))

let admits st mask =
  let found = search st mask (fun () -> true) in
  undo st 0;
  found

(* Only reached on non-minimal input, where the union of the [count]
   valid components is not itself valid: branch and bound over the
   components, including before excluding, for a largest valid union. *)
let largest st count =
  let best = ref 0 and best_size = ref 0 in
  let rec pick c mask size remaining =
    Budget.tick st.budget;
    if size + remaining <= !best_size then false
    else if c = count then begin
      best := mask;
      best_size := size;
      false
    end
    else
      let m = st.valid.(c) in
      let k = popcount m in
      let remaining = remaining - k in
      ignore (search st m (fun () -> pick (c + 1) (mask lor m) (size + k) remaining));
      pick (c + 1) mask size remaining
  in
  let total = ref 0 in
  for c = 0 to count - 1 do
    total := !total + popcount st.valid.(c)
  done;
  ignore (pick 0 0 0 !total);
  !best

(* The free-variable component of subgoal [i]: the closure of its
   neighbours *)
let rec close st m =
  let m' = ref m in
  for i = 0 to Array.length st.neighbours - 1 do
    if m land (1 lsl i) <> 0 then m' := !m' lor st.neighbours.(i)
  done;
  if !m' = m then m else close st !m'

let core st (tv : View_tuple.coded) =
  let n = Array.length st.code.body in
  let m = expand st tv in
  Array.blit st.pinned 0 st.fixed 0 st.code.num_terms;
  (* a head constant the query lacks is negative: it fixes nothing *)
  for p = 0 to Array.length tv.codes - 1 do
    if tv.codes.(p) >= 0 then st.fixed.(tv.codes.(p)) <- true
  done;
  (* [fitted]: the subgoals with a target *)
  let w = ref 0 and fitted = ref 0 in
  for i = 0 to n - 1 do
    st.target_start.(i) <- !w;
    for j = 0 to m - 1 do
      if fits st i j then begin
        st.targets.(!w) <- j;
        incr w;
        fitted := !fitted lor (1 lsl i)
      end
    done;
    let args = st.code.args.(i) in
    st.neighbours.(i) <- 1 lsl i;
    for p = 0 to Array.length args - 1 do
      if not st.fixed.(args.(p)) then
        st.neighbours.(i) <- st.neighbours.(i) lor st.occurrences.(args.(p))
    done
  done;
  st.target_start.(n) <- !w;
  let seen = ref 0 and union = ref 0 and count = ref 0 in
  for i = 0 to n - 1 do
    if !seen land (1 lsl i) = 0 then begin
      let component = close st st.neighbours.(i) in
      seen := !seen lor component;
      if component land !fitted = component && admits st component then begin
        st.valid.(!count) <- component;
        incr count;
        union := !union lor component
      end
    end
  done;
  (* Lemma 4.2: for a minimal query every valid G lies in the union, and
     the union is valid *)
  let mask = if !count <= 1 || admits st !union then !union else largest st !count in
  let subgoals = ref [] in
  for i = n - 1 downto 0 do
    if mask land (1 lsl i) <> 0 then subgoals := st.code.body.(i) :: !subgoals
  done;
  { subgoals = !subgoals; mask }

let cores ?budget ?domains (code : View_tuple.Query_code.t) tvs =
  match tvs with
  | [] -> []
  | tvs ->
      let n = Array.length code.body in
      if n > 62 then
        raise (Vplan_core.Vplan_error.Error (Width_limit { subgoals = n; max_subgoals = 62 }));
      let width =
        List.fold_left (fun w (tv : View_tuple.coded) -> max w (Pattern.length tv.pattern)) 0 tvs
      in
      (* one scratch per chunk *)
      Vplan_parallel.Parallel.map_init ?budget ?domains
        ~init:(fun () -> scratch ?budget code width)
        core tvs
