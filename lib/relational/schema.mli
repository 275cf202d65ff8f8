(** Relation schemas: ordered sequences of distinct attribute names.

    A schema fixes both the set of attributes of a relation and the
    position of each attribute inside its tuples. Set-like operations
    ([inter], [union], [diff]) keep a deterministic order derived from
    their first argument so that downstream tuples are reproducible. *)

type t

val of_list : Attr.t list -> t
(** Raises {!Errors.Schema_error} on duplicate attribute names. *)

val empty : t
val attrs : t -> Attr.t list
val arity : t -> int
val mem : Attr.t -> t -> bool

val index : Attr.t -> t -> int
(** Position of an attribute. Raises {!Errors.Schema_error} if absent. *)

val index_opt : Attr.t -> t -> int option

val inter : t -> t -> t
(** Common attributes, in the order of the first schema. *)

val union : t -> t -> t
(** Attributes of the first schema followed by the attributes of the
    second that are not already present. *)

val diff : t -> t -> t
(** Attributes of the first schema absent from the second. *)

val subset : t -> t -> bool
(** [subset a b] iff every attribute of [a] occurs in [b]. *)

val equal : t -> t -> bool
(** Order-sensitive equality. *)

val equal_as_sets : t -> t -> bool

val disjoint : t -> t -> bool

val positions : sub:t -> t -> int array
(** [positions ~sub super] gives, for each attribute of [sub] in order,
    its index in [super]. Raises {!Errors.Schema_error} if [sub] is not a
    subset of [super]. *)

val rename : (Attr.t * Attr.t) list -> t -> t
(** [rename mapping s] replaces each attribute [a] by its image under
    [mapping] (attributes not in the mapping are kept). Raises
    {!Errors.Schema_error} if the result has duplicates. *)

val restrict : keep:(Attr.t -> bool) -> t -> t
(** Sub-schema of the attributes satisfying [keep], original order. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
