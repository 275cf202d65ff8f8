(** Bag-semantics relations.

    A relation is a schema plus a multiset of tuples, represented as
    distinct tuples each carrying a positive multiplicity ({!Count.t}).
    This is the representation the paper's Section 4.2 works with: every
    relation conceptually has an extra [cnt] column, joins multiply
    counts, and group-by sums them.

    Construction normalizes: duplicate tuples are merged (counts summed)
    and rows are sorted, so equal bags have equal representations and all
    iteration orders are deterministic. *)

type t

(** {1 Construction} *)

val create : schema:Schema.t -> (Tuple.t * Count.t) list -> t
(** Raises {!Errors.Data_error} if a row's arity differs from the schema's
    or a count is not positive. *)

val of_tuples : schema:Schema.t -> Tuple.t list -> t
(** Each tuple gets multiplicity 1; duplicates accumulate. *)

val of_rows : schema:Schema.t -> Value.t list list -> t
(** Convenience for literal relations in tests and examples. *)

val empty : Schema.t -> t

val of_grouped : Schema.t -> (Tuple.t * Count.t) array -> t
(** Trusted constructor for operator outputs that are already grouped:
    the caller guarantees that the tuples are distinct and of the
    schema's arity and that every count is positive — none of this is
    checked. The rows are sorted in place (skipped when they already are),
    so the array must not be used afterwards. One sort and no hashing:
    the kernels in {!Join} and {!project} build on it, after grouping
    their output once themselves. *)

(** {1 Grouping}

    The one grouping loop of the library: {!create}, {!project},
    {!max_frequency} and [Join]'s grouped join all accumulate into a
    [groups] table and drain it. *)

type groups
(** A mutable table of (tuple, count) groups. *)

val groups : int -> groups
(** An empty table sized for about that many groups. *)

val accumulate : groups -> Tuple.t -> Count.t -> unit
(** Add a count to a tuple's group (saturating; a sum that saturates
    ticks [count.saturations]). *)

val drain : groups -> (Tuple.t * Count.t) array
(** The groups as distinct rows, in no particular order: ready for
    {!of_grouped} when every count is positive. *)

(** {1 Access} *)

val schema : t -> Schema.t

val rows : t -> (Tuple.t * Count.t) array
(** The normalized rows, sorted by {!Tuple.compare}. The returned array is
    owned by the relation: callers must not mutate it. *)

val cardinality : t -> Count.t
(** Bag cardinality: sum of multiplicities (saturating; a sum that
    saturates ticks [count.saturations]). *)

val distinct_count : t -> int
val is_empty : t -> bool
val mem : Tuple.t -> t -> bool

val count_of : Tuple.t -> t -> Count.t
(** Multiplicity of a tuple, 0 if absent. *)

val fold : (Tuple.t -> Count.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Tuple.t -> Count.t -> unit) -> t -> unit

(** {1 Unary operators} *)

val project : Schema.t -> t -> t
(** [project target r] is the paper's γ: group rows by the [target]
    attributes (a subset of [r]'s schema, any order) and sum counts.
    Projecting onto the stored schema returns [r] itself; a target that
    only permutes the columns re-keys and sorts without grouping, since
    the rows stay distinct.
    Raises {!Errors.Schema_error} if [target] is not a subset. *)

val filter : (Schema.t -> Tuple.t -> bool) -> t -> t
(** Keep rows satisfying the predicate; counts are preserved. *)

val rename : (Attr.t * Attr.t) list -> t -> t

val scale : Count.t -> t -> t
(** Multiply every multiplicity by a positive factor (saturating). Raises
    {!Errors.Data_error} if the factor is not positive. *)

(** {1 Point updates (used by naive sensitivity)} *)

val add : ?count:Count.t -> Tuple.t -> t -> t
(** Insert [count] (default 1) copies of a tuple. *)

val remove : ?count:Count.t -> Tuple.t -> t -> t
(** Remove up to [count] (default 1) copies. The count clamps at the
    stored multiplicity: removing more copies than are present deletes
    the row and nothing else. Absent tuples are ignored. Raises
    {!Errors.Data_error} if [count] is not positive. *)

(** {1 Statistics} *)

val max_row : t -> (Tuple.t * Count.t) option
(** Row with the largest multiplicity; ties broken by {!Tuple.compare}
    (smallest tuple wins) for determinism. [None] on the empty relation. *)

val max_frequency : over:Schema.t -> t -> Count.t
(** Largest multiplicity of any combination of values of the [over]
    attributes — the [mf] statistic of elastic sensitivity. With an empty
    [over] this is the bag cardinality (the cross-product extension used
    by the paper's experiments). 0 on an empty relation. Raises
    {!Errors.Schema_error} if [over] is not a subset of the schema. *)

val active_domain : Attr.t -> t -> Value.t list
(** Distinct values of one attribute, sorted. *)

(** {1 Comparison and printing} *)

val equal : t -> t -> bool
(** Bag equality on identically-ordered schemas. *)

val equal_semantic : t -> t -> bool
(** Bag equality up to column reordering: [true] iff the schemas hold the
    same attribute set and reordering the second relation's columns to the
    first's order yields equal bags. *)

val reorder : Schema.t -> t -> t
(** Reorder columns to match the given schema (same attribute set).
    Returns the relation itself when the target equals the stored
    schema; otherwise this is {!project}'s permutation path. Raises
    {!Errors.Schema_error} if the attribute sets differ. *)

val pp : Format.formatter -> t -> unit
(** Multi-line table rendering with a [cnt] column. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line rendering: schema, distinct size, cardinality. *)
