(** Integer-key hashing machinery for the columnar kernels: allocation-
    free open-addressing tables over dictionary ids, an FNV-1a composite-
    key interner, and the avalanche mixer every integer slot decision
    routes through. *)

val mix : int -> int
(** splitmix64-style finalizer, non-negative. Dictionary ids are dense
    sequential ints; mixing spreads them over all bits before a slot is
    taken modulo a power of two. *)

(** Growable int buffer — the kernels' output accumulator. *)
module Ibuf : sig
  type t

  val create : int -> t
  val push : t -> int -> unit
  val length : t -> int
  val get : t -> int -> int
  val set : t -> int -> int -> unit
  val to_array : t -> int array
end

(** Open-addressing [int -> int] table: linear probing, power-of-two
    capacity, no boxing. Keys must be non-negative (every id space the
    kernels use is). *)
module Itab : sig
  type t

  val create : int -> t
  (** [create hint] sizes for about [hint] keys. *)

  val find : t -> int -> default:int -> int
  val set : t -> int -> int -> unit

  val exchange : t -> int -> int -> default:int -> int
  (** [exchange t k v ~default] stores [v] under [k] and returns the
      previous value ([default] if absent) — one probe, used to thread
      the chained row lists of the hash-join build side. *)

  val add_count : t -> int -> Count.t -> unit
  (** Accumulate a multiplicity under [k] with saturating addition. *)

  val length : t -> int
  val iter : (int -> int -> unit) -> t -> unit
  val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
end

(** Interns fixed-arity int vectors (multi-column join/group keys) into
    dense ids — FNV-1a-mixed, compared component-wise — so multi-column
    keys reduce to the same single-int kernels as single-column ones. *)
module Keydict : sig
  type t

  val create : arity:int -> int -> t
  (** [create ~arity hint] for keys of [arity] components, sized for
      about [hint] distinct keys. *)

  val lookup_or_add : t -> int array -> int
  (** Dense id of the key, interning on first sight. The array is
      caller-owned scratch of length [arity]; its contents are copied. *)

  val lookup : t -> int array -> int
  (** Dense id, or [-1] if the key was never interned. *)

  val length : t -> int

  val get : t -> int -> int -> int
  (** [get t id j] is component [j] of interned key [id]. *)
end
