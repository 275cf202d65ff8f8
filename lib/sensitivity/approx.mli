(** Top-k frequency approximation of TSens (paper Section 5.4,
    "Efficient approximations").

    This is TSens's own pass ({!Tsens.bounds}) with one compression
    step: every botjoin and topjoin keeps only its k heaviest rows
    exactly, and every other key of its link domain is bounded by the
    (k+1)-th largest frequency, its default. Before each join, a
    compressed input is re-expanded against the bag's join keys (a
    missing key costs its default), so bounds stay tight where the data
    is skewed — the regime the paper targets. The result is a sound
    *upper bound* on every tuple sensitivity; with [k] at least the size
    of every intermediate nothing is dropped and the result equals
    {!Tsens}.

    Component sizes come from each component's root botjoin in the same
    pass, so under compression they too are upper bounds. A relation's
    bound is scaled by the product of the other components' sizes; a
    product of upper bounds is an upper bound, so the scaled bound stays
    sound. *)

open Tsens_relational
open Tsens_query

val local_sensitivity :
  k:int -> ?plans:Ghd.t list -> Cq.t -> Database.t -> Sens_types.result
(** Upper bounds on the per-relation maximum tuple sensitivities; the
    local sensitivity is the largest of them, even when that relation's
    compressed table holds no explicit row. The witness is the heaviest
    *explicitly tracked* row, the head of its table, carrying its
    relation's bound (its true sensitivity can be below the bound when
    the bound comes from the compressed tail). Raises [Invalid_argument]
    if [k < 1] or a component's plan has width above 1. *)

val analyze :
  k:int -> ?plans:Ghd.t list -> Cq.t -> Database.t -> Sens_types.result * int
(** {!local_sensitivity} and the distinct rows its compressed botjoins
    and topjoins keep, counted by {!intermediate_rows} — the space the
    approximation saves. *)

val intermediate_rows : Cq.t -> Tsens.node_stat list -> int
(** Distinct rows over a pass's botjoins and topjoins, each component's
    root topjoin (the one-row unit) left out. Applied to
    [fst (Tsens.statistics a)] it gives the exact pass's size. *)
