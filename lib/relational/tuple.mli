(** Tuples: immutable value vectors positioned by a {!Schema}.

    A tuple on its own carries no schema; the relation that owns it does.
    Treat tuples as immutable — the library never mutates an array after
    it enters a relation, and neither should callers. *)

type t = Value.t array

val of_list : Value.t list -> t

val compare : t -> t -> int
(** Lexicographic by {!Value.compare}; shorter tuples first. *)

val equal : t -> t -> bool
val hash : t -> int

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by {!hash}/{!equal} — the one table type every
    tuple-keyed structure (joins, indexes, normalization) shares. *)

val project : int array -> t -> t
(** [project positions tup] picks the values at [positions], in order. *)

val get : t -> int -> Value.t
val arity : t -> int

val concat : t -> t -> t

val pp : Format.formatter -> t -> unit
(** Renders as [(v1, v2, ...)]. *)

val to_string : t -> string
