(* End-to-end integration tests across layers: datalog text → parsed
   query → generated or CSV-round-tripped data → sensitivity analysis →
   truncation → DP release; plus whole-pipeline determinism. *)

open Tsens_relational
open Tsens_query
open Tsens_sensitivity
open Tsens_dp
open Tsens_workload

(* ------------------------------------------------------------------ *)
(* Parsed query + generated TPC-H data, all the way to a DP release. *)

let test_parsed_query_pipeline () =
  let cq =
    Parser.parse
      "Trips(*) :- Region(RK), Nation(RK,NK), Customer(NK,CK), \
       Orders(CK,OK), Lineitem(OK,SK,PK)."
  in
  Alcotest.(check bool) "parses to q1's structure" true
    (Classify.path_order cq <> None);
  let db = Tpch.generate ~scale:0.0005 () in
  let analysis = Tsens.analyze cq db in
  let result = Tsens.result analysis in
  Alcotest.(check bool) "LS positive" true
    (result.Sens_types.local_sensitivity > 0);
  (* The witness against the point oracle, and the elastic bound. *)
  Tgen.check_witness_attains_ls cq db result;
  let elastic = Elastic.local_sensitivity cq db in
  Alcotest.(check bool) "elastic dominates" true
    (elastic.Sens_types.local_sensitivity
    >= result.Sens_types.local_sensitivity);
  (* DP release with a generous budget is accurate. *)
  let config =
    {
      (Mechanism.default_config ~ell:200 ~private_relation:"Customer") with
      Mechanism.epsilon = 1e6;
    }
  in
  let report = Mechanism.run_with_analysis (Prng.create 3) config analysis in
  Alcotest.(check bool) "release near truth" true
    (Report.relative_error report < 0.01)

(* ------------------------------------------------------------------ *)
(* CSV round trip of a whole instance preserves every analysis output. *)

let test_csv_instance_round_trip () =
  let cq = Queries.q2 in
  let db = Tpch.generate ~scale:0.0005 () in
  let dir = Filename.temp_file "tsens_it" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let db' =
        List.fold_left
          (fun acc name ->
            let path = Filename.concat dir (name ^ ".csv") in
            Csv.write_file path (Database.find name db);
            Database.add ~name (Csv.read_file path) acc)
          Database.empty (Cq.relation_names cq)
      in
      let before = Tsens.local_sensitivity cq db in
      let after = Tsens.local_sensitivity cq db' in
      Alcotest.(check (list (pair string int)))
        "identical sensitivities" before.Sens_types.per_relation
        after.Sens_types.per_relation;
      Alcotest.(check int)
        "identical counts"
        (Yannakakis.count cq db)
        (Yannakakis.count cq db'))

(* ------------------------------------------------------------------ *)
(* Full determinism: generation, analysis, and DP are seed-stable. *)

let test_whole_pipeline_deterministic () =
  let run () =
    let db = Tpch.generate ~seed:9 ~scale:0.0005 () in
    let analysis = Tsens.analyze ~plans:Queries.tpch_plans Queries.q1 db in
    let config =
      Mechanism.default_config ~ell:150 ~private_relation:"Customer"
    in
    let report = Mechanism.run_with_analysis (Prng.create 5) config analysis in
    ( (Tsens.result analysis).Sens_types.per_relation,
      report.Report.noisy_answer )
  in
  let r1 = run () and r2 = run () in
  Alcotest.(check (pair (list (pair string int)) (float 0.0)))
    "bit-identical replays" r1 r2

(* ------------------------------------------------------------------ *)
(* The Facebook pipeline: generator → per-query databases → sensitivity
   consistency between the two cyclic decompositions and the oracle. *)

let test_facebook_pipeline () =
  let data =
    Facebook.generate { Facebook.nodes = 30; edges = 90; circles = 25; seed = 1 }
  in
  let db = Queries.facebook_database data Queries.q4 in
  let with_plan =
    Tsens.local_sensitivity ~plans:[ Queries.q4_ghd ] Queries.q4 db
  in
  let auto = Tsens.local_sensitivity Queries.q4 db in
  Alcotest.(check (list (pair string int)))
    "plans agree" with_plan.Sens_types.per_relation
    auto.Sens_types.per_relation;
  (* The DP setups drive the same queries. *)
  let setup = List.assoc "q4" Queries.dp_setups in
  let analysis = Tsens.analyze ~plans:[ Queries.q4_ghd ] setup.Queries.query db in
  let profile = Truncation.profile analysis setup.Queries.private_relation in
  Alcotest.(check int)
    "untruncated answer is |Q(D)|" (Tsens.output_size analysis)
    (Truncation.truncated_answer profile
       (Truncation.max_tuple_sensitivity profile))

(* ------------------------------------------------------------------ *)
(* Selection + DP: a selection lowers the output and the analysis stays
   internally consistent (truncation sums match a direct recount). *)

let test_selection_pipeline () =
  let cq = Parser.parse "Q(*) :- R1(A,B), R2(B,C)." in
  let v = Value.int in
  let db =
    Database.of_list
      [
        ( "R1",
          Relation.of_rows
            ~schema:(Schema.of_list [ "A"; "B" ])
            [ [ v 0; v 0 ]; [ v 1; v 0 ]; [ v 2; v 1 ] ] );
        ( "R2",
          Relation.of_rows
            ~schema:(Schema.of_list [ "B"; "C" ])
            [ [ v 0; v 5 ]; [ v 0; v 6 ]; [ v 1; v 7 ] ] );
      ]
  in
  (* Keep only even A values in R1. *)
  let selection relation schema t =
    (not (String.equal relation "R1"))
    ||
    match Value.as_int (Tuple.get t (Schema.index "A" schema)) with
    | Some a -> a mod 2 = 0
    | None -> true
  in
  let analysis = Tsens.analyze ~selection cq db in
  (* Rows (0,0) and (2,1) survive: outputs 2 + 1. *)
  Alcotest.(check int) "filtered output" 3 (Tsens.output_size analysis);
  let profile = Truncation.profile analysis "R1" in
  Alcotest.(check int) "profile covers filtered instance" 3
    (Truncation.truncated_answer profile 100);
  Alcotest.(check int) "filtered tuple contributes nothing" 0
    (Tsens.tuple_sensitivity analysis "R1" (Tuple.of_list [ v 1; v 0 ]))

(* ------------------------------------------------------------------ *)
(* The SAT reduction through the public pipeline: the witness of a
   satisfiable reduction is a satisfying assignment, found by the same
   Tsens entry point used everywhere else. *)

let test_sat_pipeline () =
  let rng = Prng.create 77 in
  let checked = ref 0 in
  for _ = 1 to 10 do
    let f = Sat_reduction.random_formula rng ~vars:4 ~clauses:5 in
    let cq, db = Sat_reduction.to_instance f in
    let result = Tsens.local_sensitivity cq db in
    let sat = Sat_reduction.brute_force_sat f in
    Alcotest.(check bool) "LS>0 iff SAT" sat
      (result.Sens_types.local_sensitivity > 0);
    match result.Sens_types.witness with
    | Some w when sat ->
        incr checked;
        Alcotest.(check bool) "witness satisfies" true
          (Sat_reduction.assignment_of_witness f w <> None)
    | _ -> ()
  done;
  Alcotest.(check bool) "exercised some satisfiable formulas" true
    (!checked > 0)

let () =
  Alcotest.run "integration"
    [
      ( "pipelines",
        [
          Alcotest.test_case "parsed query to DP release" `Quick
            test_parsed_query_pipeline;
          Alcotest.test_case "csv instance round trip" `Quick
            test_csv_instance_round_trip;
          Alcotest.test_case "whole pipeline deterministic" `Quick
            test_whole_pipeline_deterministic;
          Alcotest.test_case "facebook pipeline" `Quick test_facebook_pipeline;
          Alcotest.test_case "selection pipeline" `Quick
            test_selection_pipeline;
          Alcotest.test_case "sat pipeline" `Quick test_sat_pipeline;
        ] );
    ]
