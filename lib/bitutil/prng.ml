type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* splitmix64 finalizer: the output mix applied to each advanced state. *)
let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

(* every draw below moves the state by exactly one gamma, so skipping [n]
   draws is one multiply-add *)
let advance t n = t.state <- Int64.add t.state (Int64.mul (Int64.of_int n) golden_gamma)

let split t =
  let seed = next_int64 t in
  { state = seed }

let int t bound =
  assert (bound > 0);
  (* keep 62 bits so the value fits OCaml's 63-bit int non-negatively *)
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let float t x =
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  (* 53 random bits scaled to [0, 1) *)
  r /. 9007199254740992.0 *. x

let bits t ~width =
  assert (width >= 1 && width <= 64);
  if width = 64 then next_int64 t
  else Int64.logand (next_int64 t) (Int64.sub (Int64.shift_left 1L width) 1L)

let choose t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))
