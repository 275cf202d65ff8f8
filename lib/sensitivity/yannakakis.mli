(** Yannakakis-style query evaluation for counting.

    Computes the bag cardinality |Q(D)| of a full CQ in one bottom-up pass
    over a join tree (or GHD bag tree), multiplying and summing
    multiplicities — the "query evaluation" baseline of the paper's
    Figure 7 and the building block of the naive sensitivity algorithm.
    Exact under bag semantics. *)

open Tsens_relational
open Tsens_query

val plan_for : ?plans:Ghd.t list -> Cq.t -> Ghd.t
(** The decomposition of one connected component: the plan in [plans]
    with the component's atoms over the same attribute sets, else the
    width-1 GHD of the GYO join tree when the component is acyclic, else
    {!Ghd.auto}. Every algorithm that walks a decomposition picks it
    here. *)

val count : ?plans:Ghd.t list -> Cq.t -> Database.t -> Count.t
(** Output size of an arbitrary full CQ: splits into connected
    components, counts each over its {!plan_for} decomposition, and
    multiplies. *)

val output : Cq.t -> Database.t -> Relation.t
(** The materialized join (atoms folded in order). Exponential output —
    tests and examples only. *)
