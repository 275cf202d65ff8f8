(** The TSens truncation operator (paper Definition 6.4).

    T_TSens(Q, D, i) keeps a primary-private tuple only if its tuple
    sensitivity is at most i; the resulting query has global sensitivity
    i. Because the query has no self-joins, every output tuple uses
    exactly one private tuple, so the truncated answer is the sum of
    cnt(t)·δ(t) over the kept tuples — a prefix sum over the sensitivity
    profile, evaluated in O(log n) per threshold. *)

open Tsens_relational
open Tsens_sensitivity

type profile
(** Per-tuple sensitivities of one private relation, preprocessed for
    fast thresholding. *)

val profile : Tsens.analysis -> string -> profile
(** Raises {!Errors.Schema_error} if the relation is not in the query. *)

val last_kept : profile -> int -> int
(** Index of the last profiled entry whose tuple sensitivity is at most
    the threshold, or [-1] when every entry exceeds it (and on the empty
    profile). Entries are sorted ascending with duplicate-sensitivity
    runs; the returned index is always the {e last} entry of its run, so
    [cumulative.(last_kept p i)] is a complete prefix sum. *)

val truncated_answer : profile -> int -> Count.t
(** [truncated_answer p i] = |Q(T_TSens(Q, D, i))|. Monotone in [i];
    at [i >= max_tuple_sensitivity p] it equals |Q(D)|. *)

val max_tuple_sensitivity : profile -> Count.t
(** The largest δ(t) over tuples present in the relation (not over the
    whole domain — insertions do not matter for truncation). *)

val tuples_dropped : profile -> int -> Count.t
(** Bag count of private tuples removed at threshold [i]. *)

val truncate_database :
  Tsens.analysis -> string -> int -> Database.t -> Database.t
(** Materializes T_TSens(Q, D, i): the same database with the private
    relation filtered. The filtered relation keeps the stored column
    order of the input database (sensitivities are probed in atom order
    internally). For tests and inspection — the mechanisms use
    {!truncated_answer} instead. *)
