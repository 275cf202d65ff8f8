(** TSens — the paper's core contribution (Algorithm 2 and its GHD
    extension, Sections 5.2–5.4).

    For a full CQ without self-joins and a database instance, TSens
    computes the *multiplicity table* of every relation R: for each
    combination of values of R's shared attributes, the number of output
    tuples one copy of a matching R-tuple produces — i.e. the tuple
    sensitivity of every tuple in R's representative domain, covering
    both insertions and deletions. The tables come out of two passes over
    a join tree (botjoins leaf→root, topjoins root→leaf); non-acyclic
    queries run over a generalized hypertree decomposition whose bags act
    as super-relations. The maximum entry over all tables is the local
    sensitivity and its row the most sensitive tuple.

    Extensions implemented from Section 5.4: selection predicates (failing
    tuples get sensitivity 0), disconnected queries (per-component DP with
    cross-component output-size scaling), attributes appearing in a single
    atom (dropped from the DP, witness values extrapolated). *)

open Tsens_relational
open Tsens_query

type selection = string -> Schema.t -> Tuple.t -> bool
(** [selection relation schema tuple] decides whether a tuple of
    [relation] satisfies the query's selection predicate. *)

type analysis
(** The full output of the DP, reusable by the DP-mechanism layer. An
    analysis is a first-class value: build it once ({!analyze}), then
    probe it many times ({!tuple_sensitivity}, {!top_sensitive},
    {!multiplicity_table}) without re-running the passes. *)

val analyze :
  ?selection:selection ->
  ?skip:string list ->
  ?plans:Ghd.t list ->
  Cq.t ->
  Database.t ->
  analysis
(** Runs the DP. [plans] optionally fixes the decomposition of each
    connected component; {!Yannakakis.plan_for} picks it (the matching
    plan, else the GYO join tree, else {!Ghd.auto}).

    [skip] names relations whose multiplicity table should not be
    computed — the paper's optimization for relations whose tuples have
    sensitivity at most 1 because their key is a superkey of the join
    (e.g. Lineitem in q3, whose table would otherwise dominate time and
    memory). Skipped relations are reported with sensitivity 1 and no
    witness; asking for their table or tuple sensitivities raises.

    Raises {!Errors.Schema_error} if the database does not match the
    query or a skipped relation is not in it. *)

val local_sensitivity :
  ?selection:selection ->
  ?skip:string list ->
  ?plans:Ghd.t list ->
  Cq.t ->
  Database.t ->
  Sens_types.result
(** [result (analyze cq db)], as a convenience. *)

val result : analysis -> Sens_types.result

val output_size : analysis -> Count.t
(** |Q(D)| — a byproduct of the bottom-up pass. *)

val multiplicity_table : analysis -> string -> Relation.t
(** The multiplicity table T^R of a relation, over R's shared attributes,
    already scaled across components. Raises {!Errors.Schema_error} for
    relations not in the query or skipped in this analysis.

    Internally a table is a list of disjoint blocks, and a block is a
    list of parts and a factor: its entry at τ is the factor times each
    part's count at τ's projection. A table whose parts join as a pure
    cross product (e.g. an interior relation of a path query) is one
    block of them. A table whose parts carry attributes outside its
    schema splits into one block per value of those attributes when one
    part's table attributes determine them in the data: q3's Orders
    table, one block per nation, since a customer has one nation. Any
    other table is one block of one part, the grouped join. Every other
    read of the analysis ({!result}'s witness, {!top_sensitive},
    {!tuple_sensitivity}) works on the blocks and never expands them,
    with or without a selection. Only this accessor materializes the
    full table — for a cross product as large as the relation's
    representative domain. *)

val tuple_sensitivity : analysis -> string -> Tuple.t -> Count.t
(** Sensitivity of one tuple (given over the relation's full atom
    schema): its multiplicity-table entry, or 0 when the shared-attribute
    projection has no entry; 0 as well when the tuple fails the
    selection. *)

(** {1 Observability} *)

type node_stat = {
  bag : string;  (** decomposition bag (= atom name for acyclic plans) *)
  botjoin_rows : int;
  topjoin_rows : int;
  botjoin_seconds : float;  (** wall-clock spent computing ⊥(v) *)
  topjoin_seconds : float;  (** wall-clock spent computing ⊤(v) *)
}

type table_stat = {
  table_relation : string;
  factored : bool;
      (** not dense: more than one part or more than one block *)
  blocks : int;  (** disjoint blocks the table is split into *)
  table_rows : int;
      (** distinct rows stored, summed over the parts of every block (a
          factored table's materialized size would be their product) *)
}

val statistics : analysis -> node_stat list * table_stat list
(** Intermediate sizes of the DP — the quantities behind the paper's
    observation that cyclic queries' multiplicity tables grow nearly
    quadratically when stored dense. Node stats follow bag post-order per component; table
    stats follow atom order (skipped relations are absent). *)

val representation : table_stat -> string
(** ["dense"], ["factored"] or ["blocked (N blocks)"]. *)

val pp_statistics : Format.formatter -> analysis -> unit

(** {1 The pass with a compression step} *)

type intermediate = { rel : Relation.t; default : Count.t }
(** A botjoin or topjoin as the pass carries it: [rel]'s rows exactly,
    and every other key of its link domain bounded by [default]. *)

val bounds :
  step:(Relation.t -> intermediate) ->
  ?plans:Ghd.t list ->
  Cq.t ->
  Database.t ->
  Sens_types.result * node_stat list
(** Runs {!analyze}'s one pass with [step] applied to every botjoin and
    topjoin it computes ({!analyze}'s step keeps every row, default 0).
    Before each join at a bag, an input with a nonzero default is
    completed against the bag: its default stands in at every key the
    bag holds and the input lacks. A table's maximum is then the larger
    of its head and its tail, the default of one part times the largest
    counts of the others; component sizes, read from each root
    botjoin, are upper bounds. So with a [step] that drops rows the
    result's maxima are upper bounds, and its witness is the heaviest
    row the tables still hold, carrying its relation's bound. The
    returned statistics count the rows [step] kept. Sound for plans of
    width 1; {!Approx} refuses the others. *)

val instance_relation : analysis -> string -> Relation.t
(** The post-selection contents of one relation as the DP saw them
    (columns in atom-schema order). Raises {!Errors.Data_error} for
    unknown relations. *)

val top_sensitive : analysis -> string -> int -> (Tuple.t * Count.t) list
(** The [n] most sensitive tuples of a relation's representative domain
    (full atom tuples, lonely attributes extrapolated), heaviest first,
    ties by tuple order — the abstract's outlier-detection view. Each
    block is enumerated best-first without materializing, and the
    blocks are merged in that order; tuples failing the analysis's
    selection are excluded. {!result}'s witness
    is the head of this ranking for its relation. Raises like
    {!multiplicity_table} for unknown/skipped relations,
    [Invalid_argument] if [n < 0]. *)

val witness_tuple : analysis -> string -> Tuple.t -> Tuple.t
(** Extends a multiplicity-table row of the given relation to a full
    tuple over the atom schema, extrapolating lonely attributes (first
    active-domain value, or a fresh constant on empty relations). *)
