(** Bag-semantics join operators.

    These implement the paper's r⋈ operator family: natural joins that
    multiply multiplicities, optionally fused with a group-by that sums
    them (the γ of Section 4.2). With disjoint schemas [natural_join]
    degenerates to a counted cross product, which the sensitivity
    algorithms rely on. *)

val natural_join : Relation.t -> Relation.t -> Relation.t
(** Natural join on all common attributes; output schema is
    [Schema.union a b]; output multiplicities are products. Hash-based:
    the right side is hashed on the common attributes and the left side
    streamed through it. *)

val join_project : group:Schema.t -> Relation.t -> Relation.t -> Relation.t
(** [join_project ~group a b] is [Relation.project group (natural_join a b)]
    computed without materializing the full join — the fused
    γ_group(r⋈(a, b)) used throughout the topjoin/botjoin passes. Each
    matching pair's group key is read straight from the two input tuples
    and hashed once; the groups are sorted once. [group] must be a subset
    of the joined schema, in any order. *)

val join_all : Relation.t list -> Relation.t
(** Left-fold of {!natural_join}. Raises [Invalid_argument] on []. *)

val join_project_all : group:Schema.t -> Relation.t list -> Relation.t
(** Folds {!join_project}'s grouped-join step, grouping each intermediate
    result onto the attributes still needed (those in [group] or in a
    yet-unjoined relation) and the last one onto [group] itself.
    Equivalent to [Relation.project group (join_all rels)] with smaller
    intermediates. Only the result is sorted: an intermediate is only
    streamed through the next join, so it stays an unsorted row array. *)

val semijoin : Relation.t -> Relation.t -> Relation.t
(** [semijoin a b] keeps the rows of [a] whose common-attribute projection
    matches at least one row of [b]; multiplicities of [a] are kept. *)
