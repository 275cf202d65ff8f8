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
    connected component (see {!Yannakakis.find_plan}); components without
    a matching plan use the GYO join tree, or {!Ghd.auto} when cyclic.

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

    Internally, tables whose constituent joins are pure cross products
    (e.g. the interior relations of a path query) are kept factored;
    {!local_sensitivity} and {!tuple_sensitivity} never expand them, but
    this accessor materializes the full cross product — as large as the
    relation's representative domain. *)

val shared_schema : Cq.t -> string -> Schema.t
(** The attributes of an atom that occur in at least one other atom — the
    schema of its multiplicity table. *)

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
  factored : bool;  (** kept as a cross-product factorization *)
  table_rows : int;
      (** distinct entries stored: dense rows, or the sum of the factored
          parts' rows (the materialized size would be their product) *)
}

val statistics : analysis -> node_stat list * table_stat list
(** Intermediate sizes of the DP — the quantities behind the paper's
    observation that cyclic queries' multiplicity tables grow nearly
    quadratically. Node stats follow bag post-order per component; table
    stats follow atom order (skipped relations are absent). *)

val pp_statistics : Format.formatter -> analysis -> unit

val instance_relation : analysis -> string -> Relation.t
(** The post-selection contents of one relation as the DP saw them
    (columns in atom-schema order). Raises {!Errors.Data_error} for
    unknown relations. *)

val top_sensitive : analysis -> string -> int -> (Tuple.t * Count.t) list
(** The [n] most sensitive tuples of a relation's representative domain
    (full atom tuples, lonely attributes extrapolated), heaviest first,
    ties by tuple order — the abstract's outlier-detection view. Factored
    tables are enumerated best-first without materializing; tuples
    failing the analysis's selection are excluded. Raises like
    {!multiplicity_table} for unknown/skipped relations,
    [Invalid_argument] if [n < 0]. *)

val witness_tuple : analysis -> string -> Tuple.t -> Tuple.t
(** Extends a multiplicity-table row of the given relation to a full
    tuple over the atom schema, extrapolating lonely attributes (first
    active-domain value, or a fresh constant on empty relations). *)
