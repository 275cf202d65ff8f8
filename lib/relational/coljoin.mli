(** Integer-key join kernels over the columnar storage.

    The [TSENS_STORAGE=columnar] implementations behind {!Join}'s
    dispatch: relations are encoded once into {!Colrel} form, join keys
    collapse to single ints (raw {!Dict} ids for one-column keys, dense
    {!Intkey.Keydict} ids otherwise), and the hash build/probe loops run
    over open-addressing int tables. Results are bit-identical to the
    row kernels. *)

val natural_join : Relation.t -> Relation.t -> Relation.t
(** Bag natural join; counted cross product on disjoint schemas. *)

val join_project : group:Schema.t -> Relation.t -> Relation.t -> Relation.t
(** Fused γ[group](a ⋈ b): matches stream into an integer-domain
    group-by without materializing the join. [group] must be a subset of
    the union of the operand schemas. *)

val count_join : Relation.t -> Relation.t -> Count.t
(** Bag cardinality of the join, computed without materializing rows.
    Saturating. *)
