open Vplan_views

type t = {
  id : int;  (* distinct for every catalog value the process builds *)
  generation : int;
  views : View.t list;
  keyed : (string * View.t list) list;
      (* signature-tagged equivalence classes, the persistent form of
         [Equiv_class.group_views_keyed] *)
  classes : View_tuple.Classes.t;  (* the same classes, representatives compiled *)
  parent : int;
      (* the id of the catalog this one was built from by one add or
         remove; 0 for a catalog from [create] or [restore] *)
  touched : View.t list;
      (* that mutation's representatives of the classes it opened,
         emptied or took the representative of *)
}

let ids = Atomic.make 0

let make ~parent ~touched ~generation ~views keyed =
  {
    id = Atomic.fetch_and_add ids 1 + 1;
    generation;
    views;
    keyed;
    classes = View_tuple.Classes.compile (List.map snd keyed);
    parent;
    touched;
  }

let create ?budget views =
  match View.validate_set views with
  | Error e -> Error e
  | Ok () ->
      Ok
        (make ~parent:0 ~touched:[] ~generation:1 ~views
           (Equiv_class.group_views_keyed ?budget views))

let create_exn ?budget views =
  match create ?budget views with
  | Ok t -> t
  | Error e -> invalid_arg ("Catalog.create: " ^ e)

(* The members' names are distinct already: only the new names are
   checked, against each other and against the members. *)
let check_new t vs =
  let module S = Vplan_cq.Names.Sset in
  let member n = List.exists (fun m -> String.equal (View.name m) n) t.views in
  let rec loop seen = function
    | [] -> Ok ()
    | v :: rest ->
        let n = View.name v in
        if S.mem n seen || member n then Error ("duplicate view name " ^ n)
        else loop (S.add n seen) rest
  in
  loop S.empty vs

let add_views ?budget t vs =
  match check_new t vs with
  | Error e -> Error e
  | Ok () ->
      let keyed = Equiv_class.add_to_keyed ?budget t.keyed vs in
      (* a view joins an existing class behind its members or opens one
         at the end: the classes past the old ones are the new ones, and
         no old class changes its representative *)
      let old = List.length t.keyed in
      let opened = List.filteri (fun i _ -> i >= old) keyed in
      Ok
        (make ~parent:t.id
           ~touched:(List.map (fun (_, members) -> List.hd members) opened)
           ~generation:(t.generation + 1) ~views:(t.views @ vs) keyed)

let remove_views t names =
  let missing =
    List.find_opt (fun n -> not (List.exists (fun v -> View.name v = n) t.views)) names
  in
  match missing with
  | Some n -> Error ("no such view: " ^ n)
  | None ->
      let keep v = not (List.mem (View.name v) names) in
      let views = List.filter keep t.views in
      let keyed =
        List.filter_map
          (fun (s, members) ->
            match List.filter keep members with [] -> None | members -> Some (s, members))
          t.keyed
      in
      (* the classes this removal empties or takes the representative of *)
      let touched =
        List.filter_map
          (fun (_, members) ->
            let rep = List.hd members in
            if keep rep then None else Some rep)
          t.keyed
      in
      (* A class that loses its representative is represented by its
         next member, which comes later in the view list: the class moves
         to where grouping from scratch puts it, ordered by its first
         member's position. *)
      let keyed =
        if touched = [] then keyed
        else begin
          let position = Hashtbl.create 64 in
          List.iteri (fun i v -> Hashtbl.replace position (View.name v) i) views;
          let first (_, members) = Hashtbl.find position (View.name (List.hd members)) in
          List.stable_sort (fun c d -> Int.compare (first c) (first d)) keyed
        end
      in
      Ok (make ~parent:t.id ~touched ~generation:(t.generation + 1) ~views keyed)

(* Restoring from a snapshot trusts the stored partition instead of
   regrouping — that skip is the entire point of a warm restart.  The
   checks here are the cheap structural ones: a valid view set, and a
   partition that covers exactly the member list. *)
let restore ~generation ~views ~keyed =
  if generation < 1 then Error "restore: generation must be >= 1"
  else
    match View.validate_set views with
    | Error e -> Error e
    | Ok () ->
        let member_names =
          List.concat_map (fun (_, members) -> List.map View.name members) keyed
          |> List.sort String.compare
        in
        let view_names = List.map View.name views |> List.sort String.compare in
        if member_names <> view_names then
          Error "restore: class partition does not cover the view set"
        else if List.exists (fun (_, members) -> members = []) keyed then
          Error "restore: empty equivalence class"
        else Ok (make ~parent:0 ~touched:[] ~generation ~views keyed)

let touched t ~parent = if t.parent = parent.id then Some t.touched else None
let generation t = t.generation
let views t = t.views
let keyed t = t.keyed
let view_classes t = t.classes
let num_views t = List.length t.views
let num_classes t = List.length t.keyed
let find t name = View.find t.views name
