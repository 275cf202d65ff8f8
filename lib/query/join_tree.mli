(** Join trees of acyclic conjunctive queries.

    A join tree has one node per atom and satisfies the running
    intersection property: for every attribute, the nodes whose atoms
    mention it form a connected subtree. The TSens dynamic program walks
    this tree in post-order (botjoins) and pre-order (topjoins). *)

open Tsens_relational

type t

val of_cq : Cq.t -> t option
(** Join tree from the GYO elimination (ear → witness edges). [None] if
    the query is cyclic. Raises {!Errors.Schema_error} if the query is
    disconnected — handle components separately ({!Cq.components}). *)

val of_cq_exn : Cq.t -> t
(** Like {!of_cq} but raises {!Errors.Schema_error} on cyclic queries. *)

val make : Cq.t -> root:string -> parents:(string * string) list -> t
(** Explicit construction: [parents] maps each non-root atom to its
    parent. Validates that the edges span the atoms, form a tree rooted
    at [root], and satisfy the running intersection property; raises
    {!Errors.Schema_error} otherwise. Used to feed the exact join plans
    of the paper's experiments. *)

val cq : t -> Cq.t
val root : t -> string
val nodes : t -> string list
(** All atom names, in the original atom order. *)

val parent : t -> string -> string option
val children : t -> string -> string list

val siblings : t -> string -> string list
(** The paper's N(R): children of the parent, minus the node itself;
    [[]] for the root. *)

val schema : t -> string -> Schema.t
(** Schema of a node's atom. *)

val link_schema : t -> string -> Schema.t
(** [A_i ∩ A_p(i)], the attributes a node shares with its parent — the
    group-by schema of its topjoin and botjoin. Empty for the root. *)

val post_order : t -> string list
(** Children before parents; deterministic. *)

val pre_order : t -> string list
(** Parents before children; deterministic. *)

val max_degree : t -> int
(** The paper's d: max over nodes of (children count + 1 if non-root),
    i.e. the maximum tree degree. *)

val is_path : t -> bool
(** True iff every node has at most one child (the tree is a chain). *)

val pp : Format.formatter -> t -> unit
