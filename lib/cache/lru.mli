(** Bounded least-recently-used map with string keys.

    The building block of the cache layer: a hash table paired with a
    recency list, capped at a fixed number of entries. [find] promotes
    its entry to most-recently-used; [add] evicts from the cold end once
    the capacity is exceeded. Every operation takes an internal mutex,
    so one store may be probed from several domains (lib/exec regions)
    at once; values are computed {e outside} the lock by callers, so a
    race's worst case is computing the same deterministic value twice.

    Byte accounting is approximate and caller-defined: the optional
    [weight] function is sampled once per inserted value and summed into
    {!stats}' [approx_bytes]. With no [weight] the field stays 0. *)

type 'a t

type stats = {
  hits : int;  (** [find] calls that returned a value *)
  misses : int;  (** [find] calls that returned [None] *)
  evictions : int;  (** entries dropped by capacity pressure *)
  entries : int;  (** current live entries *)
  approx_bytes : int;  (** sum of [weight] over live entries *)
}

val create : ?weight:('a -> int) -> capacity:int -> unit -> 'a t
(** Raises [Invalid_argument] if [capacity < 1]. *)

val capacity : _ t -> int

val find : 'a t -> string -> 'a option
(** Probe, recording a hit or a miss and promoting on hit. *)

val mem : _ t -> string -> bool
(** Pure peek: no stats, no promotion. *)

val add : 'a t -> string -> 'a -> int
(** Insert or replace, promoting to most-recently-used, then evict
    least-recently-used entries until the capacity holds. Returns how
    many entries were evicted by this call. *)

val remove : _ t -> string -> unit
(** Explicit invalidation of one key; absent keys are ignored. *)

val clear : _ t -> unit
(** Drop every entry. Hit/miss/eviction totals are preserved (cleared
    entries do not count as evictions); use {!reset_stats} to zero
    them. *)

val stats : _ t -> stats
val reset_stats : _ t -> unit
