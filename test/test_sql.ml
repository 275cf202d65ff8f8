(* Tests for the SQL front end: translation to CQs + constraints, and
   semantic agreement with the hand-built paper queries. *)

open Tsens_relational
open Tsens_query
open Tsens_sensitivity
open Tsens_workload

let tpch_catalog =
  [
    ("Region", [ "RK" ]);
    ("Nation", [ "RK"; "NK" ]);
    ("Customer", [ "NK"; "CK" ]);
    ("Orders", [ "CK"; "OK" ]);
    ("Supplier", [ "NK"; "SK" ]);
    ("Part", [ "PK" ]);
    ("Partsupp", [ "SK"; "PK" ]);
    ("Lineitem", [ "OK"; "SK"; "PK" ]);
  ]

let q1_sql =
  "SELECT COUNT(*) FROM Region r, Nation n, Customer c, Orders o, Lineitem l \
   WHERE r.RK = n.RK AND n.NK = c.NK AND c.CK = o.CK AND o.OK = l.OK"

let test_sql_q1_equivalent () =
  let t = Sql.translate ~catalog:tpch_catalog q1_sql in
  let cq = t.Sql.query in
  Alcotest.(check int) "no constraints" 0 (List.length t.Sql.constraints);
  Alcotest.(check bool) "no renamings needed" true
    (List.for_all (fun (_, pairs) -> pairs = []) t.Sql.renamings);
  Alcotest.(check (list string))
    "atoms in FROM order"
    [ "Region"; "Nation"; "Customer"; "Orders"; "Lineitem" ]
    (Cq.relation_names cq);
  (* Join variables inherited the column names, so the translated query
     is exactly q1 up to the head name. *)
  List.iter
    (fun r ->
      Alcotest.check Tgen.schema_testable (r ^ " schema")
        (Cq.schema_of Queries.q1 r) (Cq.schema_of cq r))
    (Cq.relation_names cq);
  (* And it evaluates identically. *)
  let db = Tpch.generate ~scale:0.0005 () in
  Alcotest.(check int)
    "same count"
    (Yannakakis.count Queries.q1 db)
    (Yannakakis.count cq db);
  let a = Tsens.local_sensitivity Queries.q1 db in
  let b = Tsens.local_sensitivity cq db in
  Alcotest.(check int)
    "same local sensitivity" a.Sens_types.local_sensitivity
    b.Sens_types.local_sensitivity

let test_sql_constraints () =
  let t =
    Sql.translate ~catalog:tpch_catalog
      "select count(*) from Customer c, Orders o where c.CK = o.CK and c.NK \
       = 7 and o.OK >= 100 and 5 > c.NK"
  in
  Alcotest.(check string)
    "constraints (with the flipped literal)" "NK = 7, OK >= 100, NK < 5"
    (Format.asprintf "%a" Constraints.pp_list t.Sql.constraints)

let test_sql_string_and_bool_literals () =
  let catalog = [ ("T", [ "name"; "active" ]) ] in
  let t =
    Sql.translate ~catalog
      "SELECT COUNT(*) FROM T WHERE name = 'alice' AND active = TRUE"
  in
  Alcotest.(check string)
    "literals" "name = alice, active = true"
    (Format.asprintf "%a" Constraints.pp_list t.Sql.constraints)

let test_sql_bare_columns () =
  (* Unambiguous bare columns resolve; ambiguous ones are rejected. *)
  let t =
    Sql.translate ~catalog:tpch_catalog
      "SELECT COUNT(*) FROM Region, Nation WHERE Region.RK = Nation.RK AND \
       NK = 3"
  in
  Alcotest.(check int) "two atoms" 2 (Cq.atom_count t.Sql.query);
  Alcotest.(check bool) "ambiguous bare column" true
    (match
       Sql.translate ~catalog:tpch_catalog
         "SELECT COUNT(*) FROM Customer, Orders WHERE CK = 1"
     with
    | exception Sql.Sql_error _ -> true
    | _ -> false)

let test_sql_unjoined_tables_cross () =
  (* No WHERE: column-name collisions get distinct variables, so the
     query is a cross product, not a natural join. *)
  let catalog = [ ("X", [ "A"; "B" ]); ("Y", [ "A"; "B" ]) ] in
  let t = Sql.translate ~catalog "SELECT COUNT(*) FROM X, Y" in
  let cq = t.Sql.query in
  Alcotest.(check bool) "schemas disjoint" true
    (Schema.disjoint (Cq.schema_of cq "X") (Cq.schema_of cq "Y"));
  let v = Value.int in
  let db =
    Database.of_list
      [
        ( "X",
          Relation.of_rows
            ~schema:(Schema.of_list [ "A"; "B" ])
            [ [ v 1; v 2 ]; [ v 3; v 4 ] ] );
        ( "Y",
          Relation.of_rows
            ~schema:(Schema.of_list [ "A"; "B" ])
            [ [ v 5; v 6 ]; [ v 7; v 8 ]; [ v 9; v 0 ] ] );
      ]
  in
  (* bind renames the stored columns to the query's variables. *)
  let db = Sql.bind t db in
  Alcotest.(check int) "2 x 3 cross product" 6 (Yannakakis.count cq db)

let test_sql_errors () =
  let fails sql =
    match Sql.translate ~catalog:tpch_catalog sql with
    | exception Sql.Sql_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "unknown table" true
    (fails "SELECT COUNT(*) FROM Nowhere");
  Alcotest.(check bool) "self join" true
    (fails "SELECT COUNT(*) FROM Orders a, Orders b WHERE a.OK = b.OK");
  Alcotest.(check bool) "duplicate alias" true
    (fails "SELECT COUNT(*) FROM Orders x, Customer x");
  Alcotest.(check bool) "unknown column" true
    (fails "SELECT COUNT(*) FROM Orders o WHERE o.ZZ = 1");
  Alcotest.(check bool) "non-equality column join" true
    (fails "SELECT COUNT(*) FROM Orders o, Customer c WHERE o.CK < c.CK");
  Alcotest.(check bool) "two literals" true
    (fails "SELECT COUNT(*) FROM Orders WHERE 1 = 1");
  Alcotest.(check bool) "within-table equality" true
    (fails "SELECT COUNT(*) FROM Lineitem l WHERE l.SK = l.PK");
  Alcotest.(check bool) "count(1)" true (fails "SELECT COUNT(1) FROM Orders");
  Alcotest.(check bool) "trailing junk" true
    (fails "SELECT COUNT(*) FROM Orders; garbage");
  Alcotest.(check bool) "unterminated string" true
    (fails "SELECT COUNT(*) FROM Orders o WHERE o.OK = 'oops")

(* Every semantic error carries the span of the FROM item or the WHERE
   condition at fault: [Sql.message] renders it as [at line:col], and
   [check --sql] reports the error there as TS001 (unknown and repeated
   tables have their own codes, TS002 and TS005). *)
let test_sql_semantic_error_spans () =
  let open Tsens_analysis in
  let case (name, sql, message, spanned) =
    match Sql.translate ~catalog:tpch_catalog sql with
    | exception Sql.Sql_error (Sql.Semantic (m, span) as e) ->
        Alcotest.(check string) (name ^ ": message") message m;
        Alcotest.(check string)
          (name ^ ": spanned text") spanned (Srcspan.extract sql span);
        Alcotest.(check string)
          (name ^ ": rendered")
          (Printf.sprintf "%s at 1:%d" message (span.Srcspan.start_ofs + 1))
          (Sql.message sql e);
        let report = Analyzer.check_sql ~catalog:tpch_catalog sql in
        let diagnostics =
          List.concat_map
            (fun code -> Diagnostic.find_code code report)
            [ "TS001"; "TS002"; "TS005" ]
        in
        Alcotest.(check (list (option string)))
          (name ^ ": check span") [ Some spanned ]
          (List.map
             (fun d -> Option.map (Srcspan.extract sql) d.Diagnostic.span)
             diagnostics)
    | exception Sql.Sql_error (Sql.Syntax m) ->
        Alcotest.failf "%s: syntax error %s" name m
    | _ -> Alcotest.failf "%s: accepted" name
  in
  List.iter case
    [
      ( "unknown table",
        "SELECT COUNT(*) FROM Orders o, Nowhere n",
        "unknown table Nowhere",
        "Nowhere n" );
      ( "self join",
        "SELECT COUNT(*) FROM Orders a, Orders b WHERE a.OK = b.OK",
        "table Orders appears twice: self-joins are not supported",
        "Orders b" );
      ( "duplicate alias",
        "SELECT COUNT(*) FROM Orders x, Customer AS x",
        "duplicate alias x",
        "Customer AS x" );
      ( "unknown alias",
        "SELECT COUNT(*) FROM Orders o WHERE o.OK = 1 AND q.OK = 2",
        "unknown alias q",
        "q.OK = 2" );
      ( "unknown column",
        "SELECT COUNT(*) FROM Orders o, Customer c WHERE c.CK = o.ZZ",
        "table Orders (alias o) has no column ZZ",
        "c.CK = o.ZZ" );
      ( "unknown bare column",
        "SELECT COUNT(*) FROM Orders WHERE 3 < ZZ",
        "no table has a column ZZ",
        "3 < ZZ" );
      ( "ambiguous bare column",
        "SELECT COUNT(*) FROM Customer, Orders WHERE CK = 1",
        "column CK is ambiguous (qualify it with an alias)",
        "CK = 1" );
      ( "equated columns of one table",
        "SELECT COUNT(*) FROM Orders o, Lineitem l WHERE l.SK = l.PK",
        "conditions equate two columns of table Lineitem; per-table column \
         equalities are not supported",
        "Lineitem l" );
    ]

let test_sql_case_and_comments () =
  let t =
    Sql.translate ~catalog:tpch_catalog
      "select count(*) -- how many orders?\nfrom Orders as o;"
  in
  Alcotest.(check (list string))
    "atom" [ "Orders" ]
    (Cq.relation_names t.Sql.query)

let test_sql_catalog_of_database () =
  let db = Tpch.generate ~scale:0.0001 () in
  let catalog = Sql.catalog_of_database db in
  Alcotest.(check int) "eight tables" 8 (List.length catalog);
  Alcotest.(check (list string))
    "lineitem columns"
    [ "OK"; "SK"; "PK" ]
    (List.assoc "Lineitem" catalog);
  (* The derived catalog works for translation against the same db. *)
  let t = Sql.translate ~catalog q1_sql in
  Cq.check_database t.Sql.query (Sql.bind t db)

let test_sql_end_to_end_selection () =
  (* SQL selection → constraints → sensitivity analysis, cross-checked
     against the selection-aware oracle. *)
  let v = Value.int in
  let db =
    Database.of_list
      [
        ( "E1",
          Relation.of_rows
            ~schema:(Schema.of_list [ "src"; "dst" ])
            [ [ v 1; v 2 ]; [ v 2; v 3 ]; [ v 1; v 3 ] ] );
        ( "E2",
          Relation.of_rows
            ~schema:(Schema.of_list [ "src"; "dst" ])
            [ [ v 2; v 4 ]; [ v 3; v 4 ]; [ v 3; v 5 ] ] );
      ]
  in
  let t =
    Sql.translate
      ~catalog:(Sql.catalog_of_database db)
      "SELECT COUNT(*) FROM E1 a, E2 b WHERE a.dst = b.src AND b.dst != 5"
  in
  let cq = t.Sql.query in
  let db = Sql.bind t db in
  let selection = Option.get (Constraints.selection t.Sql.constraints) in
  let tsens = Tsens.local_sensitivity ~selection cq db in
  let naive = Naive.local_sensitivity ~selection cq db in
  Alcotest.(check int)
    "matches oracle" naive.Sens_types.local_sensitivity
    tsens.Sens_types.local_sensitivity;
  Alcotest.(check bool) "positive" true (tsens.Sens_types.local_sensitivity > 0)

(* Any input parses or fails with a positioned error: no exception and
   no error without a span. *)
let prop_parse_from_fuzz =
  Tgen.qtest ~count:500 "fuzzed input: FROM list or positioned error"
    (Tgen.fuzz_text_gen ~prefix:"SELECT COUNT(*) FROM "
       [
         "SELECT"; "count"; "FROM"; "WHERE"; "AND"; "AS"; "E1"; "a"; "dst";
         "("; ")"; "*"; ","; "."; ";"; "="; "<>"; "!="; "!"; "<"; "<=";
         ">"; ">="; "'x y'"; "'"; "--c\n"; "-"; "0"; "12"; "-3";
         "99999999999999999999"; "TRUE"; "false";
       ])
    (Printf.sprintf "%S")
    (fun text -> Tgen.positioned text (Sql.parse_from text))

let test_sql_integer_out_of_range () =
  let text = "SELECT COUNT(*) FROM E1 WHERE dst < 99999999999999999999" in
  match Sql.parse_from text with
  | Error (_, Some span) ->
      Alcotest.(check string) "spans the literal" "99999999999999999999"
        (Srcspan.extract text span)
  | Error (_, None) -> Alcotest.fail "error without a span"
  | Ok _ -> Alcotest.fail "accepted"

let () =
  Alcotest.run "sql"
    [
      ( "translate",
        [
          Alcotest.test_case "q1 equivalence" `Quick test_sql_q1_equivalent;
          Alcotest.test_case "constraints" `Quick test_sql_constraints;
          Alcotest.test_case "string/bool literals" `Quick
            test_sql_string_and_bool_literals;
          Alcotest.test_case "bare columns" `Quick test_sql_bare_columns;
          Alcotest.test_case "cross product" `Quick
            test_sql_unjoined_tables_cross;
          Alcotest.test_case "errors" `Quick test_sql_errors;
          Alcotest.test_case "semantic error spans" `Quick
            test_sql_semantic_error_spans;
          Alcotest.test_case "case and comments" `Quick
            test_sql_case_and_comments;
          Alcotest.test_case "catalog from database" `Quick
            test_sql_catalog_of_database;
          Alcotest.test_case "end-to-end selection" `Quick
            test_sql_end_to_end_selection;
        ] );
      ( "parse_from",
        [
          Alcotest.test_case "integer out of range" `Quick
            test_sql_integer_out_of_range;
          prop_parse_from_fuzz;
        ] );
    ]
