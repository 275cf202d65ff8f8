(* Intermediate-size report: the topjoin/botjoin and multiplicity-table
   sizes behind every paper query — the quantities that explain Figure
   7's q3 blow-up, why factored tables keep q1 linear and how blocks
   keep q3's Orders table small. *)

open Tsens_sensitivity
open Tsens_workload

let report label cq plans skip db =
  Bench_util.print_heading (Printf.sprintf "DP intermediates: %s" label);
  let analysis = Tsens.analyze ~skip ~plans cq db in
  let node_stats, table_stats = Tsens.statistics analysis in
  Bench_util.print_table ~columns:[ "node"; "botjoin rows"; "topjoin rows" ]
    (List.map
       (fun ns ->
         [
           ns.Tsens.bag;
           string_of_int ns.Tsens.botjoin_rows;
           string_of_int ns.Tsens.topjoin_rows;
         ])
       node_stats);
  Bench_util.print_table
    ~columns:[ "multiplicity table"; "representation"; "stored rows" ]
    (List.map
       (fun ts ->
         [
           ts.Tsens.table_relation;
           Tsens.representation ts;
           string_of_int ts.Tsens.table_rows;
         ])
       table_stats)

let run ~seed ~scale ~fb_params =
  let tpch = Tpch.generate ~seed ~scale () in
  report "q1 (TPC-H path)" Queries.q1 Queries.tpch_plans [] tpch;
  report "q2 (TPC-H acyclic)" Queries.q2 Queries.tpch_plans [] tpch;
  report "q3 (TPC-H cyclic, Lineitem skipped)" Queries.q3 Queries.tpch_plans
    [ "Lineitem" ] tpch;
  let data = Facebook.generate { fb_params with Facebook.seed } in
  List.iter
    (fun (label, cq) ->
      report label cq Queries.facebook_plans []
        (Queries.facebook_database data cq))
    [
      ("q4 (triangle)", Queries.q4);
      ("qw (path)", Queries.qw);
      ("qo (4-cycle)", Queries.qo);
      ("q* (star)", Queries.qstar);
    ]
