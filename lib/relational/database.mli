(** Database instances: named relations.

    A database is an immutable map from relation names to relations; the
    sensitivity algorithms thread updated instances through without
    copying untouched relations. *)

type t

val empty : t
val of_list : (string * Relation.t) list -> t

val add : name:string -> Relation.t -> t -> t
(** Adds or replaces a relation. *)

val find : string -> t -> Relation.t
(** Raises {!Errors.Data_error} if the name is unknown. *)

val find_opt : string -> t -> Relation.t option
val mem : string -> t -> bool

val names : t -> string list
(** Sorted relation names. *)

val update : name:string -> (Relation.t -> Relation.t) -> t -> t
(** Replace one relation by a function of its current value. Raises
    {!Errors.Data_error} if the name is unknown. *)

val fold : (string -> Relation.t -> 'a -> 'a) -> t -> 'a -> 'a

val total_tuples : t -> Count.t
(** Sum of bag cardinalities over all relations — the paper's [n]. *)

val pp : Format.formatter -> t -> unit
(** One summary line per relation. *)
