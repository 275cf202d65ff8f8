(** GYO (Graham–Yu–Ozsoyoglu) ear decomposition.

    Repeatedly removes "ears" from the query hypergraph: a hyperedge whose
    vertices either occur in no other live hyperedge or are all contained
    in one other live hyperedge (the witness). A CQ is acyclic iff the
    process empties the hypergraph; the elimination order induces the join
    tree (ear → witness edges). *)

type step = {
  ear : string;  (** the eliminated atom *)
  witness : string option;
      (** the atom absorbing the ear's shared vertices; [None] when the
          ear shares no vertex with any remaining atom (the last atom of
          its connected component, i.e. a join-tree root). *)
}

type result =
  | Acyclic of step list  (** elimination order, first ear first *)
  | Cyclic of string list  (** the irreducible residual atoms *)

val decompose : Cq.t -> result
(** Deterministic: each round eliminates the first ear in atom order. *)

val is_acyclic : Cq.t -> bool

val elimination : Cq.t -> step list
(** Like {!decompose} but raises {!Tsens_relational.Errors.Schema_error}
    on cyclic queries. *)
