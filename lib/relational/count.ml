type t = int

let zero = 0
let one = 1
let max_count = Stdlib.max_int
let is_saturated c = c = max_count

let add a b = if a > max_count - b then max_count else a + b

let c_sat = Obs.counter "count.saturations"

(* Tick at the transition only (both operands finite, sum saturated):
   a sum that merely carries an already-saturated operand was reported
   where that operand saturated. *)
let add_tracked a b =
  let sum = add a b in
  if is_saturated sum && Obs.enabled () && not (is_saturated a || is_saturated b)
  then Obs.tick c_sat;
  sum

let mul a b =
  if a = 0 || b = 0 then 0
  else if a > max_count / b then max_count
  else a * b

(* Same transition rule as [add_tracked]. *)
let mul_tracked a b =
  let product = mul a b in
  if
    is_saturated product && Obs.enabled ()
    && not (is_saturated a || is_saturated b)
  then Obs.tick c_sat;
  product

let pow c k =
  if k < 0 then invalid_arg "Count.pow: negative exponent";
  let rec loop acc k = if k = 0 then acc else loop (mul acc c) (k - 1) in
  loop one k

let compare = Int.compare
let equal = Int.equal
let max a b = if a >= b then a else b
let of_int n =
  if n < 0 then
    invalid_arg (Printf.sprintf "Count.of_int: negative multiplicity %d" n);
  n
let to_string c = if is_saturated c then "overflow" else string_of_int c
let pp ppf c = Format.pp_print_string ppf (to_string c)
