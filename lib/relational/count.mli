(** Saturating multiplicity arithmetic.

    Bag-semantics multiplicities and sensitivities are products of row
    counts; baselines such as elastic sensitivity multiply per-relation
    maximum frequencies and overflow 63-bit integers on large instances.
    This module provides addition and multiplication that saturate at
    {!max_count} instead of wrapping around, so sensitivity bounds remain
    sound (a saturated value is a valid upper bound). *)

type t = int
(** A multiplicity. Invariant: [0 <= c <= max_count]. *)

val zero : t
val one : t

val max_count : t
(** The saturation point, [Stdlib.max_int]. *)

val is_saturated : t -> bool
(** [is_saturated c] is [true] iff [c = max_count], i.e. [c] is the result
    of an overflowing operation and only meaningful as an upper bound. *)

val add : t -> t -> t
(** Saturating addition. *)

val add_tracked : t -> t -> t
(** [add], for group sums: when two finite operands sum past
    {!max_count}, ticks the [count.saturations] Obs counter, so an
    overflow inside a group-by is reported like one in a product. *)

val mul : t -> t -> t
(** Saturating multiplication. *)

val mul_tracked : t -> t -> t
(** [mul], for products outside the join kernels (scaled relations,
    truncation profiles, per-component query sizes): when two finite
    operands multiply past {!max_count}, ticks [count.saturations], the
    same transition rule as {!add_tracked}. *)

val pow : t -> int -> t
(** [pow c k] is [c] multiplied by itself [k] times (saturating);
    [pow c 0 = one]. Raises [Invalid_argument] if [k < 0]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val max : t -> t -> t

val of_int : int -> t
(** [of_int n] is [n]. Raises [Invalid_argument] if [n < 0]: a negative
    multiplicity is always an upstream accounting bug, and clamping it
    to zero would silently understate a sensitivity. *)

val to_string : t -> string
(** Renders saturated values as ["overflow"]. *)

val pp : Format.formatter -> t -> unit
