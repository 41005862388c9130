type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }
let copy t = { state = t.state }

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let raw = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  raw mod bound

let float t bound =
  let raw = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  raw /. 9007199254740992. *. bound

(* The loop keeps the state in a local and spells out [next_int64] and
   [mix64], so the int64 arithmetic stays unboxed: a call would box both
   the argument and the result on every draw. *)
let fill_uniform t a ~lo ~hi =
  let range = hi -. lo in
  let s = ref t.state in
  for i = 0 to Array.length a - 1 do
    let z = Int64.add !s golden_gamma in
    s := z;
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    let raw = Int64.to_float (Int64.shift_right_logical z 11) in
    Array.unsafe_set a i (lo +. (raw /. 9007199254740992. *. range))
  done;
  t.state <- !s

let bool t = Int64.logand (next_int64 t) 1L = 1L

let int_range t lo hi =
  if lo > hi then invalid_arg "Rng.int_range: lo > hi";
  lo + int t (hi - lo + 1)

let gaussian t ~mu ~sigma =
  (* Box–Muller; reject u1 = 0 to keep log finite. *)
  let rec draw () =
    let u1 = float t 1. in
    if u1 = 0. then draw () else u1
  in
  let u1 = draw () in
  let u2 = float t 1. in
  mu +. (sigma *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))

let split t = { state = next_int64 t }

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
