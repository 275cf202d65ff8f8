(* Integer-key hashing machinery for the columnar kernels: open-
   addressing tables with no boxing anywhere — keys are dictionary ids
   (or dense composite-key ids from [Keydict]), payloads are ints, and
   probing walks flat [int array]s with linear probing. [Hashtbl] would
   box every binding in a cons-like bucket record and hash through the
   polymorphic runtime; these tables exist so the join inner loops touch
   only immediate ints. *)

(* splitmix64-style finalizer, truncated to OCaml's 63-bit ints and
   clamped non-negative. Every slot decision on integer keys routes
   through this so dense id ranges (the common case: dictionary
   ids are assigned sequentially) spread over all bits. *)
(* The 64-bit splitmix constants exceed OCaml's int literal range; they
   are assembled from halves and wrap modulo 2^63, which is harmless for
   a mixer (multiplication overflow wraps the same way). *)
let m1 = (0xbf58476d lsl 32) lor 0x1ce4e5b9
let m2 = (0x94d049bb lsl 32) lor 0x133111eb

let mix x =
  let x = x * m1 in
  let x = x lxor (x lsr 31) in
  let x = x * m2 in
  (x lxor (x lsr 31)) land max_int

let fnv_prime = 0x100000001b3
let fnv_seed = 0x1000193

(* ------------------------------------------------------------------ *)
(* Growable int buffer: the kernels' output accumulator. *)

module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create hint = { a = Array.make (max 8 hint) 0; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let bigger = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 bigger 0 b.n;
      b.a <- bigger
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let length b = b.n
  let get b i = b.a.(i)
  let set b i x = b.a.(i) <- x
  let to_array b = Array.sub b.a 0 b.n
end

(* ------------------------------------------------------------------ *)
(* Open-addressing int -> int table. Keys must be non-negative (the id
   spaces all are); -1 marks an empty slot. Linear probing, power-of-two
   capacity, grown at half load. *)

module Itab = struct
  type t = {
    mutable keys : int array;
    mutable vals : int array;
    mutable mask : int;
    mutable count : int;
  }

  let rec capacity_for n c = if c >= 2 * n then c else capacity_for n (2 * c)

  let create hint =
    let cap = capacity_for (max 8 hint) 16 in
    { keys = Array.make cap (-1); vals = Array.make cap 0; mask = cap - 1;
      count = 0 }

  (* Index of [k]'s slot, or of the empty slot where it belongs. *)
  let slot t k =
    let i = ref (mix k land t.mask) in
    while
      let key = t.keys.(!i) in
      key >= 0 && key <> k
    do
      i := (!i + 1) land t.mask
    done;
    !i

  let grow t =
    let okeys = t.keys and ovals = t.vals in
    let cap = 2 * Array.length okeys in
    t.keys <- Array.make cap (-1);
    t.vals <- Array.make cap 0;
    t.mask <- cap - 1;
    Array.iteri
      (fun i k -> if k >= 0 then begin
           let s = slot t k in
           t.keys.(s) <- k;
           t.vals.(s) <- ovals.(i)
         end)
      okeys

  let insert_at t s k v =
    t.keys.(s) <- k;
    t.vals.(s) <- v;
    t.count <- t.count + 1;
    if 2 * t.count > t.mask then grow t

  let find t k ~default =
    let s = slot t k in
    if t.keys.(s) = k then t.vals.(s) else default

  let set t k v =
    let s = slot t k in
    if t.keys.(s) = k then t.vals.(s) <- v else insert_at t s k v

  (* Previous value (or [default]), with [v] stored in its place — the
     one-probe primitive the chained-index builds use. *)
  let exchange t k v ~default =
    let s = slot t k in
    if t.keys.(s) = k then begin
      let old = t.vals.(s) in
      t.vals.(s) <- v;
      old
    end
    else begin
      insert_at t s k v;
      default
    end

  (* Saturating count accumulation (Count.t is an int). *)
  let add_count t k (c : Count.t) =
    let s = slot t k in
    if t.keys.(s) = k then t.vals.(s) <- Count.add_tracked t.vals.(s) c
    else insert_at t s k c

  let length t = t.count

  let iter f t =
    Array.iteri (fun i k -> if k >= 0 then f k t.vals.(i)) t.keys

  let fold f t init =
    let acc = ref init in
    iter (fun k v -> acc := f k v !acc) t;
    !acc
end

(* ------------------------------------------------------------------ *)
(* Composite-key dictionary: interns fixed-arity int vectors (the multi-
   column join keys) into dense ids, FNV-1a-mixed and compared
   component-wise, so multi-column joins reduce to the same single-int
   kernels as single-column ones. One instance per kernel invocation:
   the build side interns, the probe side looks up (absent = no match,
   never interned). *)

module Keydict = struct
  type t = {
    arity : int;
    mutable slots : int array; (* dense id, -1 empty *)
    mutable mask : int;
    mutable count : int;
    data : Ibuf.t; (* interned keys, [arity]-strided *)
  }

  let create ~arity hint =
    let cap = Itab.capacity_for (max 8 hint) 16 in
    {
      arity;
      slots = Array.make cap (-1);
      mask = cap - 1;
      count = 0;
      data = Ibuf.create (max 8 (hint * max 1 arity));
    }

  let hash_key t (key : int array) =
    let h = ref fnv_seed in
    for j = 0 to t.arity - 1 do
      h := (!h lxor key.(j)) * fnv_prime
    done;
    mix !h

  let hash_stored t id =
    let h = ref fnv_seed in
    let base = id * t.arity in
    for j = 0 to t.arity - 1 do
      h := (!h lxor Ibuf.get t.data (base + j)) * fnv_prime
    done;
    mix !h

  let equal_stored t id (key : int array) =
    let base = id * t.arity in
    let rec loop j =
      j >= t.arity || (Ibuf.get t.data (base + j) = key.(j) && loop (j + 1))
    in
    loop 0

  let slot_of t key =
    let i = ref (hash_key t key land t.mask) in
    while
      let id = t.slots.(!i) in
      id >= 0 && not (equal_stored t id key)
    do
      i := (!i + 1) land t.mask
    done;
    !i

  let grow t =
    let old = t.slots in
    let cap = 2 * Array.length old in
    t.slots <- Array.make cap (-1);
    t.mask <- cap - 1;
    Array.iter
      (fun id ->
        if id >= 0 then begin
          let i = ref (hash_stored t id land t.mask) in
          while t.slots.(!i) >= 0 do
            i := (!i + 1) land t.mask
          done;
          t.slots.(!i) <- id
        end)
      old

  (* [key] is a caller-owned scratch array of length [arity]; its
     contents are copied on first sight, so callers reuse one scratch
     across rows. *)
  let lookup_or_add t key =
    let s = slot_of t key in
    if t.slots.(s) >= 0 then t.slots.(s)
    else begin
      let id = t.count in
      for j = 0 to t.arity - 1 do
        Ibuf.push t.data key.(j)
      done;
      t.slots.(s) <- id;
      t.count <- t.count + 1;
      if 2 * t.count > t.mask then grow t;
      id
    end

  let lookup t key =
    let s = slot_of t key in
    t.slots.(s)

  let length t = t.count

  let get t id j = Ibuf.get t.data ((id * t.arity) + j)
end
