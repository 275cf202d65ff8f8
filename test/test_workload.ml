(* Tests for the workload layer: TPC-H generator, Facebook ego-network
   generator, the paper's seven queries, and the 3SAT reduction. *)

open Tsens_relational
open Tsens_query
open Tsens_sensitivity
open Tsens_workload

(* ------------------------------------------------------------------ *)
(* TPC-H *)

let tiny_scale = 0.001

let test_tpch_sizes () =
  let sizes = Tpch.sizes ~scale:tiny_scale in
  Alcotest.(check (list (pair string int)))
    "targets"
    [
      ("Region", 5);
      ("Nation", 25);
      ("Supplier", 10);
      ("Customer", 150);
      ("Part", 200);
      ("Partsupp", 800);
      ("Orders", 1500);
      ("Lineitem", 6000);
    ]
    sizes;
  Alcotest.check_raises "bad scale"
    (Invalid_argument "Tpch.sizes: non-positive scale") (fun () ->
      ignore (Tpch.sizes ~scale:0.0))

let test_tpch_cardinalities () =
  let db = Tpch.generate ~scale:tiny_scale () in
  List.iter
    (fun (name, target) ->
      Alcotest.(check int)
        (name ^ " cardinality") target
        (Relation.cardinality (Database.find name db)))
    (Tpch.sizes ~scale:tiny_scale)

let test_tpch_deterministic () =
  let db1 = Tpch.generate ~seed:7 ~scale:tiny_scale () in
  let db2 = Tpch.generate ~seed:7 ~scale:tiny_scale () in
  let db3 = Tpch.generate ~seed:8 ~scale:tiny_scale () in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " reproducible") true
        (Relation.equal (Database.find name db1) (Database.find name db2)))
    Tpch.relation_names;
  Alcotest.(check bool) "seed changes data" false
    (Relation.equal (Database.find "Orders" db1) (Database.find "Orders" db3))

let test_tpch_referential_integrity () =
  let db = Tpch.generate ~scale:tiny_scale () in
  let full r = Database.find r db in
  let check_covered name a b =
    (* every tuple of a joins b on their common attributes *)
    Alcotest.(check int)
      name
      (Relation.cardinality a)
      (Relation.cardinality (Tsens_relational.Join.semijoin a b))
  in
  check_covered "nations have regions" (full "Nation") (full "Region");
  check_covered "customers have nations" (full "Customer") (full "Nation");
  check_covered "suppliers have nations" (full "Supplier") (full "Nation");
  check_covered "orders have customers" (full "Orders") (full "Customer");
  check_covered "lineitems have orders" (full "Lineitem") (full "Orders");
  check_covered "lineitems have partsupp" (full "Lineitem") (full "Partsupp");
  check_covered "partsupp has parts" (full "Partsupp") (full "Part");
  check_covered "partsupp has suppliers" (full "Partsupp") (full "Supplier")

let test_tpch_queries_match_schema () =
  let db = Tpch.generate ~scale:tiny_scale () in
  List.iter
    (fun cq -> Cq.check_database cq db)
    [ Queries.q1; Queries.q2; Queries.q3 ]

(* ------------------------------------------------------------------ *)
(* Query classification matches the paper *)

let shape cq = Format.asprintf "%a" Classify.pp_shape (Classify.classify cq)

let test_query_shapes () =
  Alcotest.(check string)
    "q1 is a path"
    "path (Lineitem - Orders - Customer - Nation - Region)"
    (shape Queries.q1);
  Alcotest.(check string) "q2 doubly acyclic" "doubly acyclic" (shape Queries.q2);
  Alcotest.(check string) "q3 cyclic" "cyclic" (shape Queries.q3);
  Alcotest.(check string) "q4 cyclic" "cyclic" (shape Queries.q4);
  Alcotest.(check string)
    "qw is a path" "path (R1 - R2 - R3 - R4)" (shape Queries.qw);
  Alcotest.(check string) "qo cyclic" "cyclic" (shape Queries.qo);
  Alcotest.(check string) "qstar acyclic only" "acyclic" (shape Queries.qstar)

let test_q3_ghd_widths () =
  Alcotest.(check int) "default width 2" 2 (Ghd.width Queries.q3_ghd);
  Alcotest.(check int) "paper width 3" 3 (Ghd.width Queries.q3_ghd_paper)

let test_q3_ghds_agree () =
  (* Both decompositions compute the same sensitivities. *)
  let db = Tpch.generate ~scale:0.0005 () in
  let a = Tsens.local_sensitivity ~plans:[ Queries.q3_ghd ] Queries.q3 db in
  let b =
    Tsens.local_sensitivity ~plans:[ Queries.q3_ghd_paper ] Queries.q3 db
  in
  Alcotest.(check (list (pair string int)))
    "per relation equal" a.Sens_types.per_relation b.Sens_types.per_relation;
  Alcotest.(check bool) "LS positive" true (a.Sens_types.local_sensitivity > 0)

(* ------------------------------------------------------------------ *)
(* Facebook *)

let small_fb =
  Facebook.generate { Facebook.nodes = 40; edges = 150; circles = 40; seed = 5 }

let test_facebook_tables_populated () =
  for i = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "table %d nonempty" i)
      true
      (Facebook.edge_table small_fb i <> [])
  done;
  Alcotest.check_raises "bad index"
    (Invalid_argument "Facebook.edge_table: index must be 0..3") (fun () ->
      ignore (Facebook.edge_table small_fb 4))

let test_facebook_bidirected () =
  (* Every directed edge's reverse is in the same table with the same
     multiplicity. *)
  for i = 0 to 3 do
    let rel = Facebook.edge_relation small_fb i ~x:"A" ~y:"B" in
    Relation.iter
      (fun t cnt ->
        let rev = Tuple.of_list [ Tuple.get t 1; Tuple.get t 0 ] in
        Alcotest.(check int)
          (Printf.sprintf "table %d symmetric" i)
          cnt (Relation.count_of rev rel))
      rel
  done

let test_facebook_deterministic () =
  let d1 =
    Facebook.generate { Facebook.nodes = 40; edges = 150; circles = 40; seed = 5 }
  in
  Alcotest.(check bool) "same seed same edges" true
    (Facebook.edge_table small_fb 0 = Facebook.edge_table d1 0)

let test_facebook_triangle_table () =
  (* The triangle table equals the 3-way join of three copies of edge
     table 3 (the self-join materialization). *)
  let r name x y = (name, Facebook.edge_relation small_fb 3 ~x ~y) in
  let cq =
    Cq.make ~name:"tri"
      [ ("E1", [ "A"; "B" ]); ("E2", [ "B"; "C" ]); ("E3", [ "C"; "A" ]) ]
  in
  let db = Database.of_list [ r "E1" "A" "B"; r "E2" "B" "C"; r "E3" "C" "A" ] in
  let joined =
    Relation.reorder
      (Schema.of_list [ "A"; "B"; "C" ])
      (Yannakakis.output cq db)
  in
  let triangle = Facebook.triangle_relation small_fb ~a:"A" ~b:"B" ~c:"C" in
  Alcotest.(check bool) "triangle table = self join" true
    (Relation.equal joined triangle);
  Alcotest.(check int)
    "triangle_count" (Relation.distinct_count triangle)
    (Facebook.triangle_count small_fb)

let test_facebook_databases_match_queries () =
  List.iter
    (fun cq ->
      Cq.check_database cq (Queries.facebook_database small_fb cq))
    [ Queries.q4; Queries.qw; Queries.qo; Queries.qstar ];
  Alcotest.(check bool) "tpch query rejected" true
    (match Queries.facebook_database small_fb Queries.q1 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_facebook_qw_witness () =
  (* On skewed data TSens's witness is checked by re-evaluating qw. *)
  let db = Queries.facebook_database small_fb Queries.qw in
  let tsens = Tsens.local_sensitivity Queries.qw db in
  Alcotest.(check bool) "positive" true (tsens.Sens_types.local_sensitivity > 0);
  Tgen.check_witness_attains_ls Queries.qw db tsens

let test_facebook_q4_plans_agree () =
  let db = Queries.facebook_database small_fb Queries.q4 in
  let manual = Tsens.local_sensitivity ~plans:[ Queries.q4_ghd ] Queries.q4 db in
  let auto = Tsens.local_sensitivity Queries.q4 db in
  Alcotest.(check (list (pair string int)))
    "per relation" manual.Sens_types.per_relation auto.Sens_types.per_relation

let test_facebook_small_naive_check () =
  (* A genuinely tiny ego-net where the exhaustive oracle is feasible. *)
  let tiny =
    Facebook.generate { Facebook.nodes = 8; edges = 12; circles = 6; seed = 3 }
  in
  List.iter
    (fun (cq, plans) ->
      let db = Queries.facebook_database tiny cq in
      let tsens = Tsens.local_sensitivity ~plans cq db in
      let naive = Naive.local_sensitivity ~max_candidates:100_000 cq db in
      Alcotest.(check (list (pair string int)))
        (Cq.name cq ^ " per relation")
        naive.Sens_types.per_relation tsens.Sens_types.per_relation)
    [
      (Queries.q4, [ Queries.q4_ghd ]);
      (Queries.qo, [ Queries.qo_ghd ]);
      (Queries.qstar, []);
    ]

(* ------------------------------------------------------------------ *)
(* TPC-H end-to-end sensitivity sanity *)

let test_q1_witness () =
  let db = Tpch.generate ~scale:tiny_scale () in
  Tgen.check_witness_attains_ls Queries.q1 db
    (Tsens.local_sensitivity Queries.q1 db)

(* q1 is a path query: Orders' table keeps ⊤(CK) and ⊥(OK) apart
   instead of holding the Customer × Orders representative domain. *)
let test_q1_theorem_4_1_space () =
  let db = Tpch.generate ~scale:tiny_scale () in
  Alcotest.(check (list (pair string int)))
    "tables over 1 + Σ distinct rows" []
    (Tgen.oversized_tables Queries.q1 db)

let test_q2_elastic_bounds () =
  let db = Tpch.generate ~scale:tiny_scale () in
  let tsens = Tsens.local_sensitivity Queries.q2 db in
  let elastic = Elastic.local_sensitivity Queries.q2 db in
  Alcotest.(check bool) "elastic is an upper bound" true
    (elastic.Sens_types.local_sensitivity
    >= tsens.Sens_types.local_sensitivity);
  Alcotest.(check bool) "tsens positive" true
    (tsens.Sens_types.local_sensitivity > 0)

(* ------------------------------------------------------------------ *)
(* SAT reduction *)

let lit ?(negated = false) var = { Sat_reduction.var; negated }

let test_sat_known_formulas () =
  let sat_f = Sat_reduction.make_formula ~vars:2 [ [ lit 0; lit 1 ] ] in
  Alcotest.(check bool) "x0 or x1 satisfiable" true
    (Sat_reduction.satisfiable_via_sensitivity sat_f);
  let unsat_f =
    Sat_reduction.make_formula ~vars:1 [ [ lit 0 ]; [ lit ~negated:true 0 ] ]
  in
  Alcotest.(check bool) "x and not x unsatisfiable" false
    (Sat_reduction.satisfiable_via_sensitivity unsat_f);
  Alcotest.(check bool) "oracle agrees on unsat" false
    (Sat_reduction.brute_force_sat unsat_f)

let test_sat_instance_shape () =
  let f =
    Sat_reduction.make_formula ~vars:4
      [ [ lit 0; lit ~negated:true 1; lit 2 ]; [ lit 1; lit 2; lit 3 ] ]
  in
  let cq, db = Sat_reduction.to_instance f in
  Alcotest.(check int) "s+1 atoms" 3 (Cq.atom_count cq);
  Alcotest.(check bool) "acyclic" true (Gyo.is_acyclic cq);
  Alcotest.(check bool) "R0 empty" true
    (Relation.is_empty (Database.find "R0" db));
  (* A 3-literal clause keeps 7 of 8 assignments. *)
  Alcotest.(check int) "7 rows" 7
    (Relation.cardinality (Database.find "C1" db))

let test_sat_witness_decodes () =
  let f =
    Sat_reduction.make_formula ~vars:3
      [ [ lit 0; lit 1 ]; [ lit ~negated:true 0; lit 2 ] ]
  in
  let cq, db = Sat_reduction.to_instance f in
  let result = Tsens.local_sensitivity cq db in
  match result.Sens_types.witness with
  | None -> Alcotest.fail "satisfiable formula must have a witness"
  | Some w ->
      Alcotest.(check string) "witness inserts into R0" "R0"
        w.Sens_types.relation;
      Alcotest.(check bool) "decodes to satisfying assignment" true
        (Sat_reduction.assignment_of_witness f w <> None)

let test_sat_validation () =
  Alcotest.(check bool) "out of range" true
    (match Sat_reduction.make_formula ~vars:1 [ [ lit 3 ] ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "empty clause" true
    (match Sat_reduction.make_formula ~vars:1 [ [] ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let prop_sat_reduction_correct =
  let gen =
    QCheck2.Gen.(
      int_range 3 5 >>= fun vars ->
      int_range 1 8 >>= fun clauses ->
      int_bound 10_000 >>= fun seed ->
      return (vars, clauses, seed))
  in
  Tgen.qtest ~count:60 "LS > 0 iff satisfiable (Theorem 3.2)" gen
    (fun (v, c, s) -> Printf.sprintf "vars=%d clauses=%d seed=%d" v c s)
    (fun (vars, clauses, seed) ->
      let f = Sat_reduction.random_formula (Prng.create seed) ~vars ~clauses in
      Bool.equal
        (Sat_reduction.satisfiable_via_sensitivity f)
        (Sat_reduction.brute_force_sat f))

(* ------------------------------------------------------------------ *)
(* DP setups *)

let test_dp_setups_consistent () =
  List.iter
    (fun (label, setup) ->
      Alcotest.(check string) "label matches key" label setup.Queries.label;
      Alcotest.(check bool)
        (label ^ " private relation in query")
        true
        (Cq.mem_relation setup.Queries.query setup.Queries.private_relation);
      List.iter
        (fun (rel, key) ->
          Alcotest.(check bool)
            (label ^ " cascade relation in query")
            true
            (Cq.mem_relation setup.Queries.query rel);
          Alcotest.(check bool)
            (label ^ " cascade key in relation")
            true
            (Schema.mem key (Cq.schema_of setup.Queries.query rel)))
        setup.Queries.cascade)
    Queries.dp_setups

let () =
  Alcotest.run "workload"
    [
      ( "tpch",
        [
          Alcotest.test_case "sizes" `Quick test_tpch_sizes;
          Alcotest.test_case "cardinalities" `Quick test_tpch_cardinalities;
          Alcotest.test_case "deterministic" `Quick test_tpch_deterministic;
          Alcotest.test_case "referential integrity" `Quick
            test_tpch_referential_integrity;
          Alcotest.test_case "query schemas" `Quick
            test_tpch_queries_match_schema;
        ] );
      ( "queries",
        [
          Alcotest.test_case "shapes" `Quick test_query_shapes;
          Alcotest.test_case "q3 ghd widths" `Quick test_q3_ghd_widths;
          Alcotest.test_case "q3 ghds agree" `Slow test_q3_ghds_agree;
          Alcotest.test_case "q1 witness = naive point" `Quick test_q1_witness;
          Alcotest.test_case "q1 tables within Theorem 4.1 space" `Quick
            test_q1_theorem_4_1_space;
          Alcotest.test_case "q2 elastic bound" `Quick test_q2_elastic_bounds;
        ] );
      ( "facebook",
        [
          Alcotest.test_case "tables populated" `Quick
            test_facebook_tables_populated;
          Alcotest.test_case "bidirected" `Quick test_facebook_bidirected;
          Alcotest.test_case "deterministic" `Quick test_facebook_deterministic;
          Alcotest.test_case "triangle table" `Quick
            test_facebook_triangle_table;
          Alcotest.test_case "databases match queries" `Quick
            test_facebook_databases_match_queries;
          Alcotest.test_case "qw witness = naive point" `Quick
            test_facebook_qw_witness;
          Alcotest.test_case "q4 plans agree" `Quick
            test_facebook_q4_plans_agree;
          Alcotest.test_case "tiny naive check" `Slow
            test_facebook_small_naive_check;
        ] );
      ( "sat",
        [
          Alcotest.test_case "known formulas" `Quick test_sat_known_formulas;
          Alcotest.test_case "instance shape" `Quick test_sat_instance_shape;
          Alcotest.test_case "witness decodes" `Quick test_sat_witness_decodes;
          Alcotest.test_case "validation" `Quick test_sat_validation;
          prop_sat_reduction_correct;
        ] );
      ( "dp_setups",
        [ Alcotest.test_case "consistency" `Quick test_dp_setups_consistent ]
      );
    ]
