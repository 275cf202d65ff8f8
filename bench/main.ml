(* Benchmark harness entry point: one sub-command per paper table/figure
   (see DESIGN.md's experiment index), plus `all` (the default: every
   experiment at the default sizes).

   Default scales are reduced relative to the paper (which ran TPC-H up
   to scale 10 on a dedicated machine); pass --scales / --scale to push
   further. *)

open Cmdliner
open Tsens_workload

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let scales_arg =
  let parse s =
    match Bench_util.parse_scales s with
    | scales -> Ok scales
    | exception Stdlib.Arg.Bad m -> Error (`Msg m)
  in
  let print ppf scales =
    Format.pp_print_string ppf
      (String.concat "," (List.map string_of_float scales))
  in
  Arg.(
    value
    & opt (conv (parse, print)) Bench_util.default_scales
    & info [ "scales" ] ~docv:"S1,S2,..."
        ~doc:"Comma-separated TPC-H scale factors.")

let scale_arg default =
  Arg.(
    value & opt float default
    & info [ "scale" ] ~docv:"SCALE" ~doc:"TPC-H scale factor.")

let runs_arg =
  Arg.(
    value & opt int 20
    & info [ "runs" ] ~docv:"N" ~doc:"Trials per DP configuration.")

let epsilon_arg =
  Arg.(
    value & opt float 1.0
    & info [ "epsilon" ] ~docv:"EPS" ~doc:"Total privacy budget per query.")

let fb_params_arg =
  let make nodes edges circles =
    { Facebook.default_params with Facebook.nodes; edges; circles }
  in
  Term.(
    const make
    $ Arg.(
        value
        & opt int Facebook.default_params.Facebook.nodes
        & info [ "fb-nodes" ] ~doc:"Ego-network nodes.")
    $ Arg.(
        value
        & opt int Facebook.default_params.Facebook.edges
        & info [ "fb-edges" ] ~doc:"Ego-network undirected edges.")
    $ Arg.(
        value
        & opt int Facebook.default_params.Facebook.circles
        & info [ "fb-circles" ] ~doc:"Ego-network circles."))

let cmd name doc term = Cmd.v (Cmd.info name ~doc) term

let fig6a_cmd =
  cmd "fig6a" "Figure 6a: local sensitivity vs scale (TSens vs Elastic)."
    Term.(
      const (fun seed scales ->
          Exp_tpch_sweep.print_fig6a (Exp_tpch_sweep.run ~seed ~scales))
      $ seed_arg $ scales_arg)

let fig6b_cmd =
  cmd "fig6b" "Figure 6b: most sensitive tuples per relation of q3."
    Term.(
      const (fun seed scale -> Exp_fig6b.run ~seed ~scale)
      $ seed_arg $ scale_arg 0.01)

let fig7_cmd =
  cmd "fig7" "Figure 7: runtime vs scale (TSens, Elastic, evaluation)."
    Term.(
      const (fun seed scales ->
          Exp_tpch_sweep.print_fig7 (Exp_tpch_sweep.run ~seed ~scales))
      $ seed_arg $ scales_arg)

let table1_cmd =
  cmd "table1" "Table 1: Facebook queries, sensitivity and runtime."
    Term.(
      const (fun seed params ->
          Exp_table1.run ~params:{ params with Facebook.seed })
      $ seed_arg $ fb_params_arg)

let table2_cmd =
  cmd "table2" "Table 2: TSensDP vs PrivSQL on all seven queries."
    Term.(
      const (fun seed scale runs epsilon fb_params ->
          Exp_table2.run ~seed ~scale ~runs ~epsilon ~fb_params)
      $ seed_arg $ scale_arg 0.01 $ runs_arg $ epsilon_arg $ fb_params_arg)

let param_ell_cmd =
  cmd "param-l" "Section 7.3: sensitivity-bound parameter sweep for q*."
    Term.(
      const (fun seed runs epsilon fb_params ->
          Exp_param_ell.run ~seed ~runs ~epsilon ~fb_params)
      $ seed_arg $ runs_arg $ epsilon_arg $ fb_params_arg)

let naive_cmd =
  cmd "naive" "Section 7.2: naive repeated evaluation vs TSens."
    Term.(
      const (fun seed scale -> Exp_naive.run ~seed ~scale)
      $ seed_arg $ scale_arg 0.0001)

let topk_cmd =
  cmd "topk" "Ablation: the Section 5.4 top-k approximation."
    Term.(
      const (fun seed scale fb_params -> Exp_topk.run ~seed ~scale ~fb_params)
      $ seed_arg $ scale_arg 0.001 $ fb_params_arg)

let explain_cmd =
  cmd "explain" "Intermediate topjoin/botjoin and table sizes per query."
    Term.(
      const (fun seed scale fb_params ->
          Exp_explain.run ~seed ~scale ~fb_params)
      $ seed_arg $ scale_arg 0.001 $ fb_params_arg)

let run_all seed scales scale runs epsilon fb_params =
  let fb_params = { fb_params with Facebook.seed } in
  let sweep = Exp_tpch_sweep.run ~seed ~scales in
  Exp_tpch_sweep.print_fig6a sweep;
  Exp_fig6b.run ~seed ~scale;
  Exp_tpch_sweep.print_fig7 sweep;
  Exp_table1.run ~params:fb_params;
  Exp_table2.run ~seed ~scale ~runs ~epsilon ~fb_params;
  Exp_param_ell.run ~seed ~runs ~epsilon ~fb_params;
  Exp_naive.run ~seed ~scale:0.0001;
  Exp_topk.run ~seed ~scale:0.001 ~fb_params

let all_term =
  Term.(
    const run_all $ seed_arg $ scales_arg $ scale_arg 0.01 $ runs_arg
    $ epsilon_arg $ fb_params_arg)

let () =
  let info =
    Cmd.info "tsens-bench"
      ~doc:
        "Regenerates every table and figure of 'Computing Local \
         Sensitivities of Counting Queries with Joins' (SIGMOD 2020)."
  in
  let group =
    Cmd.group ~default:all_term info
      [
        fig6a_cmd;
        fig6b_cmd;
        fig7_cmd;
        table1_cmd;
        table2_cmd;
        param_ell_cmd;
        naive_cmd;
        topk_cmd;
        explain_cmd;
      ]
  in
  exit (Cmd.eval group)
