(** The paper's seven evaluation queries (Figure 5) with their join plans
    and DP configurations (Section 7.1 / 7.3).

    TPC-H queries: q1 (path through Region–Nation–Customer–Orders–
    Lineitem), q2 (acyclic around Partsupp), q3 (cyclic: the universal
    join constrained so supplier and customer share a nation). Facebook
    queries over the four edge tables: q4 (triangle), qw (4-hop path),
    q○ (4-cycle), q* (triangle table joined with its three edges —
    acyclic but not doubly acyclic). Attributes present in a base table
    but not mentioned by the paper's query (e.g. Lineitem's SK, PK in q1)
    ride along as lonely attributes; bag semantics makes the counts
    identical. *)

open Tsens_relational
open Tsens_query

(** {1 TPC-H queries} *)

val q1 : Cq.t
val q2 : Cq.t
val q3 : Cq.t

val q3_ghd : Ghd.t
(** Width-2 decomposition {LS}{OC}{N}{R}{PS}{P} — smaller intermediates
    than the paper's; used by default. *)

val q3_ghd_paper : Ghd.t
(** The paper's Figure 5a hypertree {R,N,L}{O,C}{S,P}{PS} (width 3). *)

val tpch_plans : Ghd.t list
(** Plans for q1–q3 (pass as [~plans] to the sensitivity engines). *)

(** {1 Facebook queries} *)

val q4 : Cq.t  (** triangle R1(A,B), R2(B,C), R3(C,A) *)

val qw : Cq.t  (** path R1(A,B), R2(B,C), R3(C,D), R4(D,E) *)

val qo : Cq.t  (** 4-cycle R1(A,B), R2(B,C), R3(C,D), R4(D,A) *)

val qstar : Cq.t  (** Rt(A,B,C), R1(A,B), R2(B,C), R3(C,A) *)

val q4_ghd : Ghd.t  (** Figure 5b: {R1,R2}{R3} *)

val qo_ghd : Ghd.t  (** Figure 5b: {R1,R2}{R3,R4} *)

val facebook_plans : Ghd.t list

(** {1 Instances} *)

val facebook_database : Facebook.data -> Cq.t -> Database.t
(** Binds the generated edge tables (and the triangle table for the star query) to
    the attribute names of one Facebook query. Raises [Invalid_argument]
    for a non-Facebook query. *)

(** {1 DP experiment configuration (Section 7.3)} *)

type dp_setup = {
  query : Cq.t;
  label : string;
  private_relation : string;
  cascade : (string * Attr.t) list;
      (** PrivSQL's foreign-key policy: empty for Facebook queries. *)
  ell : int;
      (** the assumed public upper bound on tuple sensitivity. The paper
          picks per-instance values (q1:100, q2:500, q3:10, q4:70,
          qw:25000, 4-cycle:200, star:15); these are recalibrated the same
          way — slightly above the private relation's largest in-instance
          tuple sensitivity — for this repository's default instances
          (TPC-H scale 0.01, default ego-network). *)
}

val dp_setups : (string * dp_setup) list
(** Keyed by label: q1, q2, q3, q4, qw, qo, qstar. *)
