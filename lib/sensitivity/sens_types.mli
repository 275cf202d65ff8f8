(** Shared vocabulary of the sensitivity algorithms.

    Tuple sensitivity δ(t, Q, D) is the maximum change in the bag-counted
    join output when one copy of tuple [t] is added to or removed from its
    relation (paper Definition 2.1); local sensitivity LS(Q, D) is the
    maximum tuple sensitivity over the whole domain (Definition 2.2). All
    algorithms in this library return a {!result}: the local sensitivity,
    a witness tuple attaining it, and the per-relation maxima. *)

open Tsens_relational

type witness = {
  relation : string;  (** the relation the tuple belongs to *)
  schema : Schema.t;  (** that relation's schema *)
  tuple : Tuple.t;  (** a most sensitive tuple, over [schema] *)
  sensitivity : Count.t;
}

type result = {
  local_sensitivity : Count.t;
  witness : witness option;
      (** [None] only when every tuple of the domain has sensitivity 0 and
          no representative tuple exists (e.g. all relations empty). *)
  per_relation : (string * Count.t) list;
      (** maximum tuple sensitivity within each relation's domain, in atom
          order — the paper's Figure 6b view. *)
}

val result_of_per_relation :
  (string * Count.t * (Tuple.t * Schema.t) option) list -> result
(** Assembles a {!result} from each relation's maximum (or an upper
    bound on it) and the row that carries it ([None] when no row does,
    e.g. a domain that is entirely insensitive). The local sensitivity is
    the largest maximum; the witness is the first row, in list order,
    whose relation's maximum is largest among those with a row. *)

val extender :
  Database.t -> Tsens_query.Cq.t -> string -> Schema.t -> Tuple.t -> Tuple.t
(** [extender db cq relation row_schema] extends a row over [row_schema]
    (a subset of [relation]'s atom attributes) to a full tuple over the
    atom schema. Attributes outside [row_schema] are lonely or unpinned,
    so any value will do (paper Section 5.4): each takes the smallest
    value [relation] holds in [db], or a fresh constant when the relation
    is empty, so witnesses are deterministic. The fillers are found once,
    in one pass over the relation per filled attribute, when the
    extender is built. *)

val pp_witness : Format.formatter -> witness -> unit
val pp_result : Format.formatter -> result -> unit
