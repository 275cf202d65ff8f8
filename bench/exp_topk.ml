(* Ablation for the Section 5.4 top-k approximation: bound quality and
   intermediate-table size versus exact TSens, on q1 (TPC-H) and the
   Facebook path query. *)

open Tsens_sensitivity
open Tsens_workload

let ks = [ 1; 4; 16; 64; 256 ]

let run_one label cq db plans =
  let exact, exact_time =
    Bench_util.time (fun () -> Tsens.analyze ~plans cq db)
  in
  let exact_ls = (Tsens.result exact).Sens_types.local_sensitivity in
  let exact_rows =
    Approx.intermediate_rows cq (fst (Tsens.statistics exact))
  in
  let rows =
    List.map
      (fun k ->
        let (bound, kept), t =
          Bench_util.time (fun () -> Approx.analyze ~k ~plans cq db)
        in
        [
          label;
          string_of_int k;
          Bench_util.count_to_string bound.Sens_types.local_sensitivity;
          Bench_util.count_to_string exact_ls;
          Printf.sprintf "%d/%d" kept exact_rows;
          Bench_util.seconds_to_string t;
        ])
      ks
  in
  ( rows,
    [
      label;
      "exact";
      Bench_util.count_to_string exact_ls;
      Bench_util.count_to_string exact_ls;
      Printf.sprintf "%d/%d" exact_rows exact_rows;
      Bench_util.seconds_to_string exact_time;
    ] )

let run ~seed ~scale ~fb_params =
  Bench_util.print_heading
    "Ablation: top-k approximation (upper bound vs exact TSens)";
  let tpch = Tpch.generate ~seed ~scale () in
  let fb =
    Queries.facebook_database
      (Facebook.generate { fb_params with Facebook.seed })
      Queries.qw
  in
  let q1_rows, q1_exact =
    run_one "q1" Queries.q1 tpch Queries.tpch_plans
  in
  let qw_rows, qw_exact =
    run_one "qw" Queries.qw fb Queries.facebook_plans
  in
  Bench_util.print_table
    ~columns:[ "query"; "k"; "LS bound"; "LS exact"; "rows kept"; "time" ]
    ((q1_exact :: q1_rows) @ (qw_exact :: qw_rows))
