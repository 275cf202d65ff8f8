(** Elastic sensitivity — the Flex baseline (Johnson, Near, Song 2017).

    An upper bound on local sensitivity from static analysis of a binary
    join plan plus per-relation maximum-frequency statistics ("we first
    let Elastic pre-process the database to obtain the max frequency").
    Following the paper's experimental setup, the plan is the post-order
    traversal of the same join tree / GHD that TSens uses, extended to
    cross products by taking a table's cardinality as the max frequency
    of an empty attribute set.

    For a join q1 ⋈ q2 with the sensitive relation inside q1, elastic
    sensitivity multiplies S(q1) by the max frequency of the join
    attributes in q2; max frequencies of composite plans are themselves
    bounded recursively. The bound can exceed TSens by orders of
    magnitude (the paper's headline 2,200,000×) and produces no witness
    tuple. *)

open Tsens_relational
open Tsens_query

type plan = Leaf of string | Join of plan * plan

val plan_of_cq : ?plans:Ghd.t list -> Cq.t -> plan
(** Plans each connected component (via the matching decomposition in
    [plans], else the default one) and chains the components with cross
    products. A component's plan is left-deep: its bags in post-order of
    the bag tree, each bag's members in declaration order. *)

val relation_sensitivity : Cq.t -> Database.t -> plan -> string -> Count.t
(** Elastic sensitivity of the query treating the given relation as the
    only sensitive one — the paper's Figure 6b comparison column. *)

val local_sensitivity :
  ?plans:Ghd.t list -> Cq.t -> Database.t -> Sens_types.result
(** Maximum of {!relation_sensitivity} over all relations. The witness is
    always [None]: elastic sensitivity cannot identify sensitive
    tuples. *)
