(** Deterministic splittable pseudo-random numbers (splitmix64).

    Workload generation and differentially-private mechanisms both need
    reproducible randomness. Streams are seeded explicitly and can be
    {!split} into statistically independent sub-streams so that, e.g.,
    each TPC-H table is generated from its own stream regardless of
    generation order. Not cryptographically secure — the DP layer uses it
    for simulation-quality noise, which is what the paper's experiments
    measure. *)

type t

val create : int -> t
(** A fresh stream from an integer seed. *)

val split : t -> t
(** A new stream seeded from (and advancing) the parent. *)

val copy : t -> t

val next : t -> int64
(** The raw 64-bit splitmix64 output; advances the stream. *)

val int : t -> int -> int
(** [int t bound] is uniform on [[0, bound)]. Raises [Invalid_argument]
    if [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform on [[lo, hi]] inclusive. *)

val float : t -> float -> float
(** [float t x] is uniform on [[0, x)]. *)

val uniform : t -> float
(** Uniform on [(0, 1)] — never exactly 0 or 1, safe for [log]. *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates. *)
