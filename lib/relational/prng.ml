(* splitmix64 (Steele, Lea, Flood 2014): one 64-bit state, additive
   gamma, strong finalizer. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix (Int64.of_int seed) }

let next t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = { state = mix (next t) }
let copy t = { state = t.state }

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: non-positive bound";
  (* Modulo bias is < bound / 2^63, negligible for simulation use. *)
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

let int_in t lo hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int t (hi - lo + 1)

let uniform t =
  (* 53 random bits into (0,1): offset by half an ulp to exclude 0. *)
  let bits = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  (bits +. 0.5) *. (1.0 /. 9007199254740992.0)

let float t x = uniform t *. x
let bool t = Int64.logand (next t) 1L = 1L

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
