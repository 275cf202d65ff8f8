(* tsens — command-line front end.

   Sub-commands:
     check        static pre-execution diagnostics (queries, DP configs)
     classify     print a query's structural class, join tree and GHD
     sensitivity  local sensitivity of a query over CSV relations
     generate     write a synthetic TPC-H or ego-network instance as CSVs
     dp           differentially private counting-query release (TSensDP)

   Queries are given in datalog syntax, either inline or in a file:
     Q( * ) :- R1(A,B), R2(B,C).   [a head of * lists all variables]
   Each relation R is loaded from <data-dir>/R.csv (header row with the
   attribute names plus a trailing cnt column). *)

open Cmdliner
open Tsens_relational
open Tsens_query
open Tsens_sensitivity
open Tsens_dp
open Tsens_workload
open Tsens_analysis

(* ------------------------------------------------------------------ *)
(* Shared arguments and loading *)

let query_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "q"; "query" ] ~docv:"QUERY"
        ~doc:
          "The conjunctive query in datalog syntax, or a path to a file \
           containing it.")

let data_dir_arg =
  Arg.(
    required
    & opt (some dir) None
    & info [ "d"; "data" ] ~docv:"DIR"
        ~doc:"Directory holding one <relation>.csv file per atom.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let sql_flag =
  Arg.(
    value & flag
    & info [ "sql" ]
        ~doc:
          "Interpret the query as SQL (SELECT COUNT( * ) FROM ... WHERE \
           ...) instead of datalog; requires --data for the catalog.")

let query_text spec =
  if Sys.file_exists spec then
    In_channel.with_open_text spec In_channel.input_all
  else spec

let load_query spec = Parser.parse_full (query_text spec)

let catalog_of_dir dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".csv")
  |> List.sort String.compare
  |> List.map (fun f ->
         ( Filename.remove_extension f,
           Schema.attrs
             (Relation.schema (Csv.read_file (Filename.concat dir f))) ))

let load_database cq dir =
  let load name =
    let path = Filename.concat dir (name ^ ".csv") in
    if not (Sys.file_exists path) then
      Errors.data_errorf "no CSV file for relation %s (expected %s)" name path;
    (name, Csv.read_file path)
  in
  Database.of_list (List.map load (Cq.relation_names cq))

(* --trace / --stats: run the command with the observability sink live
   and render the captured spans/counters afterwards. --trace goes to
   stderr so it composes with machine-read stdout; --stats json|pretty
   goes to stdout and is the machine-readable path. *)
let stats_arg =
  Arg.(
    value
    & opt (some (enum [ ("pretty", `Pretty); ("json", `Json) ])) None
    & info [ "stats" ] ~docv:"FORMAT"
        ~doc:
          "Print operator-level observability (timed spans, row/probe \
           counters) after the command, as $(b,pretty) or $(b,json).")

let trace_flag =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:"Print the observability report to stderr when done.")

let with_observability ~stats ~trace f =
  let active = trace || stats <> None in
  if active then begin
    Obs.reset ();
    Obs.enable ()
  end;
  let report () =
    if active then begin
      Obs.disable ();
      let r = Obs.Report.capture () in
      if trace then Format.eprintf "%a@." Obs.Report.pp r;
      match stats with
      | Some `Pretty -> Format.printf "%a@." Obs.Report.pp r
      | Some `Json -> Format.printf "%s@." (Obs.Report.to_json r)
      | None -> ()
    end
  in
  Fun.protect ~finally:report f

let handle_errors f =
  try f (); 0 with
  | Errors.Schema_error m | Errors.Data_error m ->
      Printf.eprintf "error: %s\n" m;
      1
  | Parser.Parse_error m | Sql.Sql_error m ->
      Printf.eprintf "parse error: %s\n" m;
      1
  | Invalid_argument m ->
      Printf.eprintf "error: %s\n" m;
      1

(* Query + constraints + matching database, from either surface syntax. *)
let prepare ~sql query data =
  if sql then begin
    let t = Sql.translate ~catalog:(catalog_of_dir data) (query_text query) in
    let db = Sql.bind t (load_database t.Sql.query data) in
    (t.Sql.query, t.Sql.constraints, db)
  end
  else begin
    let cq, constraints = load_query query in
    (cq, constraints, load_database cq data)
  end

(* ------------------------------------------------------------------ *)
(* check *)

(* One directory scan for both the catalog and the cardinality
   statistics the analyzer's saturation bound needs. *)
let catalog_and_stats_of_dir dir =
  let rels =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".csv")
    |> List.sort String.compare
    |> List.map (fun f ->
           (Filename.remove_extension f, Csv.read_file (Filename.concat dir f)))
  in
  ( List.map (fun (n, r) -> (n, Schema.attrs (Relation.schema r))) rels,
    List.map (fun (n, r) -> (n, Relation.cardinality r)) rels )

(* The DP checks only run when at least one DP option was given. *)
let dp_of_options ~private_rel ~epsilon ~threshold_fraction ~ell =
  match (private_rel, epsilon, threshold_fraction, ell) with
  | None, None, None, None -> None
  | _ ->
      Some
        {
          Analyzer.epsilon = Option.value epsilon ~default:1.0;
          threshold_fraction = Option.value threshold_fraction ~default:0.5;
          ell = Option.value ell ~default:100;
          private_relation = private_rel;
        }

let print_report ?source ~json report =
  if json then print_endline (Diagnostic.report_to_json report)
  else Format.printf "%a@." (Diagnostic.pp_report ?source) report

(* The bundled evaluation queries with their Section 7.3 DP setups. *)
let workload_reports which =
  let wanted label =
    match which with
    | `All -> true
    | `Tpch -> List.mem label [ "q1"; "q2"; "q3" ]
    | `Facebook -> List.mem label [ "q4"; "qw"; "qo"; "qstar" ]
  in
  List.filter_map
    (fun (label, (s : Queries.dp_setup)) ->
      if not (wanted label) then None
      else
        let dp =
          {
            Analyzer.epsilon = 1.0;
            threshold_fraction = 0.5;
            ell = s.Queries.ell;
            private_relation = Some s.Queries.private_relation;
          }
        in
        Some (Analyzer.check_cq ~dp s.Queries.query))
    Queries.dp_setups

let run_check query sql data workload private_rel epsilon threshold_fraction
    ell json =
  try
    let reports =
      match workload with
      | Some which ->
          List.map (fun r -> (None, r)) (workload_reports which)
      | None ->
          let query =
            match query with
            | Some q -> q
            | None -> invalid_arg "check needs either --query or --workload"
          in
          let catalog, stats =
            match data with
            | None -> (None, None)
            | Some dir ->
                let c, s = catalog_and_stats_of_dir dir in
                (Some c, Some s)
          in
          let dp =
            dp_of_options ~private_rel ~epsilon ~threshold_fraction ~ell
          in
          let source = query_text query in
          let report =
            if sql then
              match catalog with
              | Some catalog -> Analyzer.check_sql ~catalog ?stats ?dp source
              | None ->
                  raise (Sql.Sql_error "--sql check needs --data for the catalog")
            else Analyzer.check_source ?catalog ?stats ?dp source
          in
          [ (Some source, report) ]
    in
    List.iter (fun (source, r) -> print_report ?source ~json r) reports;
    if List.exists (fun (_, r) -> Diagnostic.has_errors r) reports then 1
    else 0
  with
  | Errors.Schema_error m | Errors.Data_error m ->
      Printf.eprintf "error: %s\n" m;
      2
  | Sql.Sql_error m ->
      Printf.eprintf "parse error: %s\n" m;
      2
  | Invalid_argument m ->
      Printf.eprintf "error: %s\n" m;
      2

let check_cmd =
  let query =
    Arg.(
      value
      & opt (some string) None
      & info [ "q"; "query" ] ~docv:"QUERY"
          ~doc:
            "The conjunctive query in datalog syntax, or a path to a file \
             containing it.")
  in
  let data =
    Arg.(
      value
      & opt (some dir) None
      & info [ "d"; "data" ] ~docv:"DIR"
          ~doc:
            "CSV directory; enables catalog conformance checks and the \
             counter-saturation bound.")
  in
  let workload =
    Arg.(
      value
      & opt
          (some (enum [ ("tpch", `Tpch); ("facebook", `Facebook); ("all", `All) ]))
          None
      & info [ "workload" ] ~docv:"WHICH"
          ~doc:
            "Check the bundled evaluation queries ($(b,tpch), $(b,facebook) \
             or $(b,all)) with their DP setups instead of --query.")
  in
  let private_rel =
    Arg.(
      value
      & opt (some string) None
      & info [ "private" ] ~docv:"RELATION"
          ~doc:"The primary private relation (enables the DP checks).")
  in
  let epsilon =
    Arg.(
      value
      & opt (some float) None
      & info [ "epsilon" ] ~doc:"Privacy budget to validate.")
  in
  let threshold_fraction =
    Arg.(
      value
      & opt (some float) None
      & info [ "threshold-fraction" ]
          ~doc:"Share of epsilon spent learning the truncation threshold.")
  in
  let ell =
    Arg.(
      value
      & opt (some int) None
      & info [ "ell" ] ~doc:"Public upper bound on tuple sensitivity.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit each report as a JSON object (one per line).")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically analyze a query, plan and DP configuration without \
          executing anything. Exits 1 if any error-severity diagnostic is \
          reported, 2 on I/O problems.")
    Term.(
      const run_check $ query $ sql_flag $ data $ workload $ private_rel
      $ epsilon $ threshold_fraction $ ell $ json)

(* ------------------------------------------------------------------ *)
(* classify *)

let run_classify query sql data =
  handle_errors (fun () ->
      let cq, constraints =
        if sql then begin
          match data with
          | Some dir ->
              let t =
                Sql.translate ~catalog:(catalog_of_dir dir) (query_text query)
              in
              (t.Sql.query, t.Sql.constraints)
          | None ->
              raise (Sql.Sql_error "--sql classification needs --data for the catalog")
        end
        else load_query query
      in
      Format.printf "query: %a@." Cq.pp cq;
      if constraints <> [] then
        Format.printf "selections: %a@." Constraints.pp_list constraints;
      Format.printf "atoms: %d, variables: %d@." (Cq.atom_count cq)
        (Cq.var_count cq);
      Format.printf "shape: %a@." Classify.pp_shape (Classify.classify cq);
      List.iteri
        (fun i component ->
          Format.printf "component %d: %s@." (i + 1)
            (String.concat ", " (Cq.relation_names component));
          match Join_tree.of_cq component with
          | Some jt ->
              Format.printf "  join tree: %a (max degree %d)@." Join_tree.pp
                jt
                (Join_tree.max_degree jt)
          | None ->
              let ghd = Ghd.auto component in
              Format.printf "  cyclic; auto GHD: %a@." Ghd.pp ghd)
        (Cq.components cq))

let classify_cmd =
  let optional_data =
    Arg.(
      value
      & opt (some dir) None
      & info [ "d"; "data" ] ~docv:"DIR"
          ~doc:"CSV directory (only needed with --sql).")
  in
  Cmd.v
    (Cmd.info "classify" ~doc:"Print a query's structural classification.")
    Term.(const run_classify $ query_arg $ sql_flag $ optional_data)

(* ------------------------------------------------------------------ *)
(* sensitivity *)

let algorithm_arg =
  Arg.(
    value
    & opt (enum [ ("tsens", `Tsens); ("path", `Path); ("elastic", `Elastic);
                  ("naive", `Naive); ("topk", `Topk) ])
        `Tsens
    & info [ "a"; "algorithm" ] ~docv:"ALGO"
        ~doc:
          "One of tsens (default), path (Algorithm 1, path queries only), \
           elastic (the Flex upper bound), naive (exhaustive oracle, small \
           data only), topk (the top-k upper bound).")

let k_arg =
  Arg.(
    value & opt int 64
    & info [ "k" ] ~docv:"K" ~doc:"Table size for --algorithm topk.")

let tables_flag =
  Arg.(
    value & flag
    & info [ "tables" ] ~doc:"Also print every multiplicity table.")

let explain_flag =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:"Print intermediate topjoin/botjoin and table sizes.")

let run_sensitivity query data algorithm k tables explain sql stats trace =
  handle_errors (fun () ->
      with_observability ~stats ~trace @@ fun () ->
      let cq, constraints, db = prepare ~sql query data in
      let selection = Constraints.selection constraints in
      let need_selection_support name =
        if selection <> None then
          Errors.schema_errorf
            "algorithm %s does not support selection constraints; use tsens \
             or naive"
            name
      in
      (* One DP run serves the TSens result, --explain and --tables. *)
      let analysis = lazy (Tsens.analyze ?selection cq db) in
      let result =
        match algorithm with
        | `Tsens -> Tsens.result (Lazy.force analysis)
        | `Path ->
            need_selection_support "path";
            Path_sens.local_sensitivity cq db
        | `Elastic ->
            need_selection_support "elastic";
            Elastic.local_sensitivity cq db
        | `Naive -> Naive.local_sensitivity ?selection cq db
        | `Topk ->
            need_selection_support "topk";
            Approx.local_sensitivity ~k cq db
      in
      Format.printf "%a@." Sens_types.pp_result result;
      if explain then
        Format.printf "@.%a@." Tsens.pp_statistics (Lazy.force analysis);
      if tables then begin
        let analysis = Lazy.force analysis in
        List.iter
          (fun r ->
            Format.printf "@.multiplicity table of %s:@.%a@." r Relation.pp
              (Tsens.multiplicity_table analysis r))
          (Cq.relation_names cq)
      end)

let sensitivity_cmd =
  Cmd.v
    (Cmd.info "sensitivity"
       ~doc:"Local sensitivity of a counting query over CSV relations.")
    Term.(
      const run_sensitivity $ query_arg $ data_dir_arg $ algorithm_arg $ k_arg
      $ tables_flag $ explain_flag $ sql_flag $ stats_arg $ trace_flag)

(* ------------------------------------------------------------------ *)
(* generate *)

let out_dir_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Output directory (created).")

let run_generate kind scale nodes edges circles out seed =
  handle_errors (fun () ->
      if not (Sys.file_exists out) then Sys.mkdir out 0o755;
      let db =
        match kind with
        | `Tpch -> Tpch.generate ~seed ~scale ()
        | `Facebook ->
            let data =
              Facebook.generate { Facebook.nodes; edges; circles; seed }
            in
            (* Write the four edge tables with generic column names plus
               the triangle table; queries rename columns as needed. *)
            Database.of_list
              (( "Triangles",
                 Facebook.triangle_relation data ~a:"X" ~b:"Y" ~c:"Z" )
              :: List.init 4 (fun i ->
                     ( Printf.sprintf "R%d" (i + 1),
                       Facebook.edge_relation data i ~x:"X" ~y:"Y" )))
      in
      Database.fold
        (fun name rel () ->
          let path = Filename.concat out (name ^ ".csv") in
          Csv.write_file path rel;
          Format.printf "wrote %s (%a)@." path Relation.pp_summary rel)
        db ())

let generate_cmd =
  let kind =
    Arg.(
      value
      & opt (enum [ ("tpch", `Tpch); ("facebook", `Facebook) ]) `Tpch
      & info [ "kind" ] ~docv:"KIND" ~doc:"tpch (default) or facebook.")
  in
  let scale =
    Arg.(value & opt float 0.001 & info [ "scale" ] ~doc:"TPC-H scale.")
  in
  let nodes =
    Arg.(value & opt int 225 & info [ "nodes" ] ~doc:"Ego-network nodes.")
  in
  let edges =
    Arg.(value & opt int 6400 & info [ "edges" ] ~doc:"Ego-network edges.")
  in
  let circles =
    Arg.(value & opt int 567 & info [ "circles" ] ~doc:"Ego-network circles.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Write a synthetic instance as CSV files.")
    Term.(
      const run_generate $ kind $ scale $ nodes $ edges $ circles $ out_dir_arg
      $ seed_arg)

(* ------------------------------------------------------------------ *)
(* dp *)

let run_dp query data private_relation epsilon ell seed sql stats trace =
  handle_errors (fun () ->
      with_observability ~stats ~trace @@ fun () ->
      let cq, constraints, db = prepare ~sql query data in
      let selection = Constraints.selection constraints in
      let analysis = Tsens.analyze ?selection cq db in
      let config =
        {
          (Mechanism.default_config ~ell ~private_relation) with
          Mechanism.epsilon;
        }
      in
      let rng = Prng.create seed in
      let report = Mechanism.run_with_analysis rng config analysis in
      Format.printf "released answer: %a@." Report.pp_value
        (Report.released report);
      Format.printf "%a@." Report.pp report)

let dp_cmd =
  let private_rel =
    Arg.(
      required
      & opt (some string) None
      & info [ "private" ] ~docv:"RELATION"
          ~doc:"The primary private relation.")
  in
  let epsilon =
    Arg.(value & opt float 1.0 & info [ "epsilon" ] ~doc:"Privacy budget.")
  in
  let ell =
    Arg.(
      value & opt int 100
      & info [ "ell" ] ~doc:"Public upper bound on tuple sensitivity.")
  in
  Cmd.v
    (Cmd.info "dp"
       ~doc:"Release the counting query's answer with TSensDP (epsilon-DP).")
    Term.(
      const run_dp $ query_arg $ data_dir_arg $ private_rel $ epsilon $ ell
      $ seed_arg $ sql_flag $ stats_arg $ trace_flag)

(* ------------------------------------------------------------------ *)

let () =
  let info =
    Cmd.info "tsens"
      ~doc:
        "Local sensitivities of counting queries with joins (SIGMOD 2020), \
         and truncation-based differentially private releases."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ check_cmd; classify_cmd; sensitivity_cmd; generate_cmd; dp_cmd ]))
