(** Hash indexes over a sub-schema of a relation.

    An index groups the rows of a relation by their projection onto a key
    schema. Joins and semi-joins probe it; the grouped counts double as
    frequency statistics. *)

type t

val build : key:Schema.t -> Relation.t -> t
(** Raises {!Errors.Schema_error} if [key] is not a subset of the
    relation's schema. An empty [key] puts every row in one group. *)

val key_schema : t -> Schema.t
val source_schema : t -> Schema.t

val lookup : t -> Tuple.t -> (Tuple.t * Count.t) array
(** Rows (full tuples of the source relation) whose key projection equals
    the given key tuple; [[||]] if none. The array is owned by the index:
    callers must not mutate it. *)

val group_count : t -> Tuple.t -> Count.t
(** Summed multiplicity of the group, 0 if the key is absent. *)

val max_group_count : t -> Count.t
(** Largest group multiplicity — [mf] over the key schema. 0 if empty. *)

val iter_groups : (Tuple.t -> (Tuple.t * Count.t) array -> unit) -> t -> unit

