type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix (Int64.of_int seed) }

let next t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* mask to the native 63-bit positive range before reducing *)
  let x = Int64.to_int (next t) land max_int in
  x mod bound

let range t lo hi =
  if hi < lo then invalid_arg "Prng.range: hi < lo";
  lo + int t (hi - lo + 1)

let float t =
  (* top 53 bits give a uniform double in [0, 1) *)
  Int64.to_float (Int64.shift_right_logical (next t) 11)
  *. (1.0 /. 9007199254740992.0)

let pick t = function
  | [] -> invalid_arg "Prng.pick: empty list"
  | l -> List.nth l (int t (List.length l))

let shuffle t l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a
