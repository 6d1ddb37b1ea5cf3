open Vplan_cq
open Vplan_views
module Budget = Vplan_core.Budget

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

(* The query, compiled once per request.  A query term is an integer
   code: variables are 0 .. num_vars - 1 and constants follow. *)
type compiled = {
  body : Atom.t array;
  args : int array array;  (* per subgoal, the code of each argument *)
  num_vars : int;
  num_terms : int;
  var_ids : (string, int) Hashtbl.t;
  const_codes : (Term.const, int) Hashtbl.t;
  pinned : bool array;  (* per term: a constant or a distinguished variable *)
  occurrences : int array;  (* per variable, the bitmask of subgoals using it *)
}

(* A term the query lacks (a view's own constant) codes as -1, which no
   query term matches. *)
let term_code var_ids const_codes = function
  | Term.Var x -> Option.value ~default:(-1) (Hashtbl.find_opt var_ids x)
  | Term.Cst c -> Option.value ~default:(-1) (Hashtbl.find_opt const_codes c)

let compile (query : Query.t) =
  let body = Array.of_list query.body in
  if Array.length body > 62 then
    raise
      (Vplan_core.Vplan_error.Error
         (Width_limit { subgoals = Array.length body; max_subgoals = 62 }));
  let vars = Query.vars query in
  let num_vars = List.length vars in
  let var_ids = Hashtbl.create 16 and const_codes = Hashtbl.create 8 in
  List.iteri (fun i x -> Hashtbl.replace var_ids x i) vars;
  let constants = Query.constants query in
  List.iteri (fun i c -> Hashtbl.replace const_codes c (num_vars + i)) constants;
  let args =
    Array.map
      (fun (a : Atom.t) -> Array.of_list (List.map (term_code var_ids const_codes) a.args))
      body
  in
  let num_terms = num_vars + List.length constants in
  let pinned = Array.init num_terms (fun c -> c >= num_vars) in
  List.iter
    (function Term.Var x -> pinned.(Hashtbl.find var_ids x) <- true | Term.Cst _ -> ())
    query.head.args;
  let occurrences = Array.make num_vars 0 in
  Array.iteri
    (fun i codes ->
      Array.iter
        (fun c -> if c < num_vars then occurrences.(c) <- occurrences.(c) lor (1 lsl i))
        codes)
    args;
  {
    body;
    args;
    num_vars;
    num_terms;
    var_ids;
    const_codes;
    pinned;
    occurrences;
  }

(* The expansion of a view tuple over codes: a head variable of the view
   stands for the tuple's argument at its position, and every other
   variable is existential number e, coded [num_terms + e].  The tuple was
   produced by evaluating the view, so a repeated head variable carries
   equal arguments and its first position decides. *)
let expand qc (tv : View_tuple.t) =
  let term_code = term_code qc.var_ids qc.const_codes in
  let tuple = Array.of_list (List.map term_code tv.atom.args) in
  (* the position of [x] among the view's head arguments, or -1 *)
  let rec position x i = function
    | Term.Var y :: _ when String.equal x y -> i
    | _ :: head -> position x (i + 1) head
    | [] -> -1
  in
  let existentials = ref [] and num_existentials = ref 0 in
  let code = function
    | Term.Cst _ as t -> term_code t
    | Term.Var x -> (
        match position x 0 tv.view.head.args with
        | -1 -> (
            match List.assoc_opt x !existentials with
            | Some e -> e
            | None ->
                let e = qc.num_terms + !num_existentials in
                existentials := (x, e) :: !existentials;
                incr num_existentials;
                e)
        | i -> tuple.(i))
  in
  let atoms =
    Array.of_list
      (List.map
         (fun (a : Atom.t) -> (a.pred, Array.of_list (List.map code a.args)))
         tv.view.body)
  in
  (tuple, atoms, !num_existentials)

(* Definition 4.1 over codes.  A variable is fixed when it is
   distinguished or an argument of the view tuple: it must map to itself,
   as a constant does.  Every other variable is free and must map to an
   existential of the expansion, injectively; by property (3) a free
   variable drags in every subgoal using it.  A core is therefore a union
   of free-variable components (subgoals linked by shared free
   variables), and injectivity can only fail between two free variables
   sent to one existential.  [assign] maps free variables to existentials
   and [owner] back; [trail] records bindings for undo. *)
type search = {
  qc : compiled;
  fixed : bool array;  (* per term: constants and fixed variables *)
  targets : int array array;  (* per subgoal, the expansion atoms it fits *)
  images : int array array;  (* per expansion atom, its argument codes *)
  assign : int array;
  owner : int array;
  trail : int array;
  mutable top : int;
  budget : Budget.t option;
}

let undo st mark =
  while st.top > mark do
    st.top <- st.top - 1;
    let v = st.trail.(st.top) in
    st.owner.(st.assign.(v) - st.qc.num_terms) <- -1;
    st.assign.(v) <- -1
  done

(* Send subgoal [i] to expansion atom [j]: constants and fixed variables
   already match (the targets are filtered for it), so only the free
   variables' bindings remain to check. *)
let bind st i j =
  let args = st.qc.args.(i) and image = st.images.(j) in
  let rec go p =
    p = Array.length args
    ||
    let v = args.(p) in
    (st.fixed.(v)
    ||
    let e = image.(p) in
    let cur = st.assign.(v) in
    if cur >= 0 then cur = e
    else if st.owner.(e - st.qc.num_terms) >= 0 then false
    else begin
      st.assign.(v) <- e;
      st.owner.(e - st.qc.num_terms) <- v;
      st.trail.(st.top) <- v;
      st.top <- st.top + 1;
      true
    end)
    && go (p + 1)
  in
  go 0

(* Depth-first over [subgoals.(k..)] times each one's targets; [cont]
   runs on a complete mapping, and a [false] from it backtracks.  On
   [false] the bindings are as on entry. *)
let rec search st subgoals k cont =
  Budget.tick st.budget;
  if k = Array.length subgoals then cont ()
  else
    let i = subgoals.(k) in
    let targets = st.targets.(i) in
    let rec try_from t =
      t < Array.length targets
      &&
      let mark = st.top in
      (bind st i targets.(t) && search st subgoals (k + 1) cont)
      || begin
           undo st mark;
           try_from (t + 1)
         end
    in
    try_from 0

let rec popcount m = if m = 0 then 0 else 1 + popcount (m land (m - 1))

let members mask =
  let subgoals = Array.make (popcount mask) 0 in
  let rec fill i k =
    if k < Array.length subgoals then
      if mask land (1 lsl i) <> 0 then begin
        subgoals.(k) <- i;
        fill (i + 1) (k + 1)
      end
      else fill (i + 1) k
  in
  fill 0 0;
  subgoals

let admits st subgoals =
  let found = search st subgoals 0 (fun () -> true) in
  undo st 0;
  found

(* Only reached on non-minimal input, where the valid components'
   union is not itself valid: branch and bound over the components,
   including before excluding, for a largest valid union. *)
let largest st valid =
  let comps = Array.of_list (List.map (fun m -> (m, members m)) valid) in
  let best = ref 0 and best_size = ref 0 in
  let rec pick c mask size remaining =
    Budget.tick st.budget;
    if size + remaining <= !best_size then false
    else if c = Array.length comps then begin
      best := mask;
      best_size := size;
      false
    end
    else
      let m, subgoals = comps.(c) in
      let remaining = remaining - Array.length subgoals in
      ignore
        (search st subgoals 0 (fun () ->
             pick (c + 1) (mask lor m) (size + Array.length subgoals) remaining));
      pick (c + 1) mask size remaining
  in
  let total = Array.fold_left (fun acc (_, s) -> acc + Array.length s) 0 comps in
  ignore (pick 0 0 0 total);
  !best

let core ?budget qc (tv : View_tuple.t) =
  let n = Array.length qc.body in
  let tuple, expansion, num_existentials = expand qc tv in
  let fixed = Array.copy qc.pinned in
  Array.iter (fun c -> if c >= 0 then fixed.(c) <- true) tuple;
  let fits i (pred, image) =
    let args = qc.args.(i) in
    String.equal pred qc.body.(i).Atom.pred
    && Array.length image = Array.length args
    &&
    let rec go p =
      p = Array.length args
      ||
      let c = args.(p) in
      (if fixed.(c) then image.(p) = c else image.(p) >= qc.num_terms)
      && go (p + 1)
    in
    go 0
  in
  let targets =
    Array.init n (fun i ->
        let acc = ref [] in
        for j = Array.length expansion - 1 downto 0 do
          if fits i expansion.(j) then acc := j :: !acc
        done;
        Array.of_list !acc)
  in
  let st =
    {
      qc;
      fixed;
      targets;
      images = Array.map snd expansion;
      assign = Array.make qc.num_vars (-1);
      owner = Array.make num_existentials (-1);
      trail = Array.make qc.num_vars 0;
      top = 0;
      budget;
    }
  in
  let neighbours =
    Array.init n (fun i ->
        Array.fold_left
          (fun m c -> if fixed.(c) then m else m lor qc.occurrences.(c))
          (1 lsl i) qc.args.(i))
  in
  let rec close m =
    let m' = ref m in
    for i = 0 to n - 1 do
      if m land (1 lsl i) <> 0 then m' := !m' lor neighbours.(i)
    done;
    if !m' = m then m else close !m'
  in
  let seen = ref 0 and valid = ref [] in
  for i = 0 to n - 1 do
    if !seen land (1 lsl i) = 0 then begin
      let component = close neighbours.(i) in
      seen := !seen lor component;
      let subgoals = members component in
      if Array.for_all (fun g -> targets.(g) <> [||]) subgoals && admits st subgoals then
        valid := component :: !valid
    end
  done;
  let valid = List.rev !valid in
  let union = List.fold_left ( lor ) 0 valid in
  (* Lemma 4.2: for a minimal query every valid G lies in the union, and
     the union is valid *)
  let mask =
    match valid with
    | [] | [ _ ] -> union
    | _ -> if admits st (members union) then union else largest st valid
  in
  let subgoals = List.filteri (fun i _ -> mask land (1 lsl i) <> 0) (Array.to_list qc.body) in
  { subgoals; mask }

let cores ?budget ?domains ~query tvs =
  match tvs with
  | [] -> []
  | _ ->
      let qc = compile query in
      Vplan_parallel.Parallel.map ?budget ?domains (core ?budget qc) tvs
