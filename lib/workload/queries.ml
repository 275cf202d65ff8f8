open Tsens_relational
open Tsens_query

(* ------------------------------------------------------------------ *)
(* TPC-H queries (Figure 5a) *)

let q1 =
  Cq.make ~name:"q1"
    [
      ("Region", [ "RK" ]);
      ("Nation", [ "RK"; "NK" ]);
      ("Customer", [ "NK"; "CK" ]);
      ("Orders", [ "CK"; "OK" ]);
      ("Lineitem", [ "OK"; "SK"; "PK" ]);
    ]

let q2 =
  Cq.make ~name:"q2"
    [
      ("Partsupp", [ "SK"; "PK" ]);
      ("Supplier", [ "NK"; "SK" ]);
      ("Part", [ "PK" ]);
      ("Lineitem", [ "OK"; "SK"; "PK" ]);
    ]

let q3 =
  Cq.make ~name:"q3"
    [
      ("Nation", [ "RK"; "NK" ]);
      ("Supplier", [ "NK"; "SK" ]);
      ("Partsupp", [ "SK"; "PK" ]);
      ("Part", [ "PK" ]);
      ("Region", [ "RK" ]);
      ("Customer", [ "NK"; "CK" ]);
      ("Orders", [ "CK"; "OK" ]);
      ("Lineitem", [ "OK"; "SK"; "PK" ]);
    ]

(* Width-2 decomposition of q3 with |Lineitem|-sized intermediates: the
   cycle N–C–O–L–S–N is covered by joining Lineitem with Supplier. *)
let q3_ghd =
  Ghd.make q3
    ~bags:
      [
        ("LS", [ "Lineitem"; "Supplier" ]);
        ("OC", [ "Orders"; "Customer" ]);
        ("N", [ "Nation" ]);
        ("R", [ "Region" ]);
        ("PS", [ "Partsupp" ]);
        ("P", [ "Part" ]);
      ]
    ~root:"LS"
    ~parents:
      [ ("OC", "LS"); ("N", "OC"); ("R", "N"); ("PS", "LS"); ("P", "PS") ]

(* The paper's Figure 5a hypertree (width 3). *)
let q3_ghd_paper =
  Ghd.make q3
    ~bags:
      [
        ("RNL", [ "Region"; "Nation"; "Lineitem" ]);
        ("OC", [ "Orders"; "Customer" ]);
        ("SP", [ "Supplier"; "Part" ]);
        ("PS", [ "Partsupp" ]);
      ]
    ~root:"RNL"
    ~parents:[ ("OC", "RNL"); ("SP", "RNL"); ("PS", "SP") ]

let tpch_plans =
  [
    Ghd.of_join_tree (Join_tree.of_cq_exn q1);
    Ghd.of_join_tree (Join_tree.of_cq_exn q2);
    q3_ghd;
  ]

(* ------------------------------------------------------------------ *)
(* Facebook queries (Figure 5b) *)

let q4 =
  Cq.make ~name:"q4"
    [ ("R1", [ "A"; "B" ]); ("R2", [ "B"; "C" ]); ("R3", [ "C"; "A" ]) ]

let qw =
  Cq.make ~name:"qw"
    [
      ("R1", [ "A"; "B" ]);
      ("R2", [ "B"; "C" ]);
      ("R3", [ "C"; "D" ]);
      ("R4", [ "D"; "E" ]);
    ]

let qo =
  Cq.make ~name:"qo"
    [
      ("R1", [ "A"; "B" ]);
      ("R2", [ "B"; "C" ]);
      ("R3", [ "C"; "D" ]);
      ("R4", [ "D"; "A" ]);
    ]

let qstar =
  Cq.make ~name:"qstar"
    [
      ("Rt", [ "A"; "B"; "C" ]);
      ("R1", [ "A"; "B" ]);
      ("R2", [ "B"; "C" ]);
      ("R3", [ "C"; "A" ]);
    ]

let q4_ghd =
  Ghd.make q4
    ~bags:[ ("R1R2", [ "R1"; "R2" ]); ("R3b", [ "R3" ]) ]
    ~root:"R1R2"
    ~parents:[ ("R3b", "R1R2") ]

let qo_ghd =
  Ghd.make qo
    ~bags:[ ("R1R2", [ "R1"; "R2" ]); ("R3R4", [ "R3"; "R4" ]) ]
    ~root:"R1R2"
    ~parents:[ ("R3R4", "R1R2") ]

let facebook_plans =
  [
    q4_ghd;
    Ghd.of_join_tree (Join_tree.of_cq_exn qw);
    qo_ghd;
    Ghd.of_join_tree (Join_tree.of_cq_exn qstar);
  ]

(* ------------------------------------------------------------------ *)
(* Instances *)

let facebook_database data cq =
  let edge i x y = (Printf.sprintf "R%d" (i + 1), Facebook.edge_relation data i ~x ~y) in
  match Cq.name cq with
  | "q4" ->
      Database.of_list [ edge 0 "A" "B"; edge 1 "B" "C"; edge 2 "C" "A" ]
  | "qw" ->
      Database.of_list
        [ edge 0 "A" "B"; edge 1 "B" "C"; edge 2 "C" "D"; edge 3 "D" "E" ]
  | "qo" ->
      Database.of_list
        [ edge 0 "A" "B"; edge 1 "B" "C"; edge 2 "C" "D"; edge 3 "D" "A" ]
  | "qstar" ->
      Database.of_list
        [
          ("Rt", Facebook.triangle_relation data ~a:"A" ~b:"B" ~c:"C");
          edge 0 "A" "B";
          edge 1 "B" "C";
          edge 2 "C" "A";
        ]
  | other ->
      invalid_arg
        (Printf.sprintf "Queries.facebook_database: %s is not a Facebook query"
           other)

(* ------------------------------------------------------------------ *)
(* DP configuration (Section 7.3) *)

type dp_setup = {
  query : Cq.t;
  label : string;
  private_relation : string;
  cascade : (string * Attr.t) list;
  ell : int;
}

let dp_setups =
  let tpch_customer_cascade =
    [ ("Orders", "CK"); ("Lineitem", "OK") ]
  in
  [
    ( "q1",
      {
        query = q1;
        label = "q1";
        private_relation = "Customer";
        cascade = tpch_customer_cascade;
        ell = 150;
      } );
    ( "q2",
      {
        query = q2;
        label = "q2";
        private_relation = "Supplier";
        cascade = [ ("Partsupp", "SK"); ("Lineitem", "SK") ];
        ell = 1_000;
      } );
    ( "q3",
      {
        query = q3;
        label = "q3";
        private_relation = "Customer";
        cascade = tpch_customer_cascade;
        ell = 15;
      } );
    ( "q4",
      { query = q4; label = "q4"; private_relation = "R2"; cascade = []; ell = 30 } );
    ( "qw",
      {
        query = qw;
        label = "qw";
        private_relation = "R2";
        cascade = [];
        ell = 40_000;
      } );
    ( "qo",
      { query = qo; label = "qo"; private_relation = "R2"; cascade = []; ell = 200 }
    );
    ( "qstar",
      {
        query = qstar;
        label = "qstar";
        private_relation = "R2";
        cascade = [];
        ell = 20;
      } );
  ]
