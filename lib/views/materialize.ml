open Vplan_exec

let image base vs =
  (* one interned columnar image of the base: every view evaluation
     shares its constant dictionary and runs through the hash-join
     engine, and the answers stay int rows in that dictionary *)
  let interned = Interned.of_database base in
  Interned.derive interned
    (List.map
       (fun view ->
         (View.name view, fun code -> Exec.rows ~code interned view))
       vs)

let views base vs = Interned.database (image base vs)
