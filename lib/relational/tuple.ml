type t = Value.t array

let of_list = Array.of_list

(* [compare], [hash] and [project] are plain loops: they run once per
   probe, group lookup or sort comparison, and a closure over their
   arguments would be allocated on every call. *)
let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else begin
    let c = ref 0 and i = ref 0 in
    while !c = 0 && !i < la do
      c := Value.compare a.(!i) b.(!i);
      incr i
    done;
    !c
  end

let equal a b = compare a b = 0

(* FNV-1a-style accumulator over the per-value hashes, with a final
   avalanche. The previous [acc * 31 + h] mix left the low bits of the
   last value dominating the low bits of the result, so hash-table
   buckets (taken from those low bits) degenerated on sequential integer
   keys. *)
let fnv_prime = 0x100000001b3

let hash t =
  let h = ref 0x2545f4914f6cdd1d in
  for i = 0 to Array.length t - 1 do
    h := (!h lxor Value.hash t.(i)) * fnv_prime
  done;
  let h = !h in
  h lxor (h lsr 29)

(* One hashed-table functor for every tuple-keyed table in the library
   (joins, indexes, relation normalization): consistent hashing, no
   polymorphic-compare fallback. *)
module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let project positions t =
  let n = Array.length positions in
  if n = 0 then [||]
  else begin
    let out = Array.make n t.(positions.(0)) in
    for i = 1 to n - 1 do
      out.(i) <- t.(positions.(i))
    done;
    out
  end
let get t i = t.(i)
let arity = Array.length
let concat = Array.append

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Value.pp)
    (Array.to_list t)

let to_string t = Format.asprintf "%a" pp t
