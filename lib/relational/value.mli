(** Scalar attribute values.

    Values are immutable and totally ordered; the order is used by
    sort-merge joins and by deterministic output formatting. Comparisons
    across constructors order [Int < Str < Bool] — mixing types in one
    attribute is legal but discouraged. *)

type t =
  | Int of int
  | Str of string
  | Bool of bool

val int : int -> t
val str : string -> t
val bool : bool -> t

val compare : t -> t -> int
val equal : t -> t -> bool

val hash : t -> int
(** Structural hash, consistent with {!equal}. *)

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by {!hash}/{!equal}. *)

val as_int : t -> int option
(** [as_int v] is [Some n] iff [v = Int n]. *)

val as_str : t -> string option
val as_bool : t -> bool option

val to_string : t -> string
(** Unambiguous rendering: ints bare, strings unquoted (they never start
    with a digit in generated workloads), bools as [true]/[false]. *)

val of_string : string -> t
(** Best-effort inverse of {!to_string}: parses ints and bools, falls back
    to [Str]. *)

val pp : Format.formatter -> t -> unit
