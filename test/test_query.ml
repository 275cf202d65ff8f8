(* Tests for conjunctive queries, GYO decomposition, join trees, GHDs,
   classification, the shared lexer and the datalog parser. *)

open Tsens_relational
open Tsens_query

let schema l = Schema.of_list l

(* The paper's running example (Figure 1 / Figure 2). *)
let fig1_cq =
  Cq.make ~name:"fig1"
    [
      ("R1", [ "A"; "B"; "C" ]);
      ("R2", [ "A"; "B"; "D" ]);
      ("R3", [ "A"; "E" ]);
      ("R4", [ "B"; "F" ]);
    ]

let path4_cq =
  Cq.make ~name:"path4"
    [
      ("R1", [ "A"; "B" ]);
      ("R2", [ "B"; "C" ]);
      ("R3", [ "C"; "D" ]);
      ("R4", [ "D"; "E" ]);
    ]

let triangle_cq =
  Cq.make ~name:"triangle"
    [ ("R1", [ "A"; "B" ]); ("R2", [ "B"; "C" ]); ("R3", [ "C"; "A" ]) ]

let square_cq =
  Cq.make ~name:"square"
    [
      ("R1", [ "A"; "B" ]);
      ("R2", [ "B"; "C" ]);
      ("R3", [ "C"; "D" ]);
      ("R4", [ "D"; "A" ]);
    ]

(* The paper's "star" query q*: triangle relation joined with its edges —
   acyclic but not doubly acyclic (Section 5.2's hard example). *)
let star_cq =
  Cq.make ~name:"star"
    [
      ("Rt", [ "A"; "B"; "C" ]);
      ("R1", [ "A"; "B" ]);
      ("R2", [ "B"; "C" ]);
      ("R3", [ "C"; "A" ]);
    ]

let disconnected_cq =
  Cq.make ~name:"disc"
    [ ("R1", [ "A"; "B" ]); ("R2", [ "B"; "C" ]); ("R3", [ "X"; "Y" ]) ]

(* ------------------------------------------------------------------ *)
(* Cq *)

let test_cq_validation () =
  Alcotest.check_raises "empty body" (Errors.Schema_error "CQ Q has no atoms")
    (fun () -> ignore (Cq.make []));
  Alcotest.check_raises "self join"
    (Errors.Schema_error
       "relation R appears twice in CQ Q (self-joins are unsupported)")
    (fun () -> ignore (Cq.make [ ("R", [ "A" ]); ("R", [ "B" ]) ]))

let test_cq_vars () =
  Alcotest.(check (list string))
    "vars in first-occurrence order"
    [ "A"; "B"; "C"; "D"; "E"; "F" ]
    (Cq.vars fig1_cq);
  Alcotest.(check int) "var count" 6 (Cq.var_count fig1_cq);
  Alcotest.(check (list string))
    "atoms with A" [ "R1"; "R2"; "R3" ]
    (Cq.atoms_with fig1_cq "A");
  Alcotest.(check (list string))
    "shared vars" [ "A"; "B" ] (Cq.shared_vars fig1_cq);
  Alcotest.(check (list string))
    "lonely vars" [ "C"; "D"; "E"; "F" ]
    (Cq.lonely_vars fig1_cq)

let test_cq_components () =
  Alcotest.(check bool) "fig1 connected" true (Cq.is_connected fig1_cq);
  Alcotest.(check bool) "disc not connected" false
    (Cq.is_connected disconnected_cq);
  let comps = Cq.components disconnected_cq in
  Alcotest.(check int) "two components" 2 (List.length comps);
  Alcotest.(check (list (list string)))
    "component atoms"
    [ [ "R1"; "R2" ]; [ "R3" ] ]
    (List.map Cq.relation_names comps)

let test_cq_restrict () =
  let sub = Cq.restrict fig1_cq ~keep:(fun r -> r = "R1" || r = "R3") in
  Alcotest.(check (list string)) "kept" [ "R1"; "R3" ] (Cq.relation_names sub);
  Alcotest.check_raises "empty restriction"
    (Errors.Schema_error "restriction of CQ fig1 keeps no atom") (fun () ->
      ignore (Cq.restrict fig1_cq ~keep:(fun _ -> false)))

let test_cq_project_onto_shared () =
  let projected = Cq.project_onto_shared fig1_cq in
  Alcotest.check Tgen.schema_testable "R1 loses C"
    (schema [ "A"; "B" ])
    (Cq.schema_of projected "R1");
  Alcotest.check Tgen.schema_testable "R3 loses E" (schema [ "A" ])
    (Cq.schema_of projected "R3");
  (* A single-atom query keeps a stand-in attribute. *)
  let single = Cq.make [ ("R", [ "A"; "B" ]) ] in
  Alcotest.check Tgen.schema_testable "stand-in attr" (schema [ "A" ])
    (Cq.schema_of (Cq.project_onto_shared single) "R")

let test_cq_check_database () =
  let db =
    Database.of_list
      [ ("R1", Relation.empty (schema [ "A"; "B" ])) ]
  in
  let q = Cq.make [ ("R1", [ "A"; "B" ]) ] in
  Cq.check_database q db;
  let q_bad = Cq.make [ ("R1", [ "A"; "Z" ]) ] in
  Alcotest.check_raises "schema mismatch"
    (Errors.Schema_error
       "relation R1 has schema (A, B) but CQ Q expects (A, Z)") (fun () ->
      Cq.check_database q_bad db);
  let q_missing = Cq.make [ ("R9", [ "A" ]) ] in
  Alcotest.check_raises "missing relation"
    (Errors.Schema_error "database lacks relation R9 required by CQ Q")
    (fun () -> Cq.check_database q_missing db)

(* ------------------------------------------------------------------ *)
(* Gyo *)

let test_gyo_fig1_acyclic () =
  match Gyo.decompose fig1_cq with
  | Gyo.Acyclic steps ->
      Alcotest.(check int) "all atoms eliminated" 4 (List.length steps);
      let roots =
        List.filter (fun s -> s.Gyo.witness = None) steps
      in
      Alcotest.(check int) "exactly one root" 1 (List.length roots)
  | Gyo.Cyclic _ -> Alcotest.fail "fig1 should be acyclic"

let test_gyo_cyclic () =
  (match Gyo.decompose triangle_cq with
  | Gyo.Cyclic residual ->
      Alcotest.(check int) "triangle residual" 3 (List.length residual)
  | Gyo.Acyclic _ -> Alcotest.fail "triangle should be cyclic");
  Alcotest.(check bool) "square cyclic" false (Gyo.is_acyclic square_cq);
  Alcotest.(check bool) "path acyclic" true (Gyo.is_acyclic path4_cq);
  Alcotest.(check bool) "star acyclic" true (Gyo.is_acyclic star_cq)

let test_gyo_elimination_raises () =
  Alcotest.check_raises "elimination on cyclic"
    (Errors.Schema_error "CQ triangle is cyclic (residual atoms: R1, R2, R3)")
    (fun () -> ignore (Gyo.elimination triangle_cq))

(* ------------------------------------------------------------------ *)
(* Join_tree *)

let test_join_tree_of_cq () =
  match Join_tree.of_cq fig1_cq with
  | None -> Alcotest.fail "fig1 should have a join tree"
  | Some jt ->
      Alcotest.(check int) "4 nodes" 4 (List.length (Join_tree.nodes jt));
      (* post-order visits children before parents. *)
      let post = Join_tree.post_order jt in
      Alcotest.(check string)
        "root last" (Join_tree.root jt)
        (List.nth post (List.length post - 1));
      let pre = Join_tree.pre_order jt in
      Alcotest.(check string) "root first" (Join_tree.root jt) (List.hd pre);
      Alcotest.(check int)
        "pre and post visit all" (List.length post) (List.length pre)

let test_join_tree_triangle_none () =
  Alcotest.(check bool) "no join tree for triangle" true
    (Join_tree.of_cq triangle_cq = None)

let test_join_tree_paper_shape () =
  (* The paper's Figure 2 join tree: R1 root with R2, R3, R4 children. *)
  let jt =
    Join_tree.make fig1_cq ~root:"R1"
      ~parents:[ ("R2", "R1"); ("R3", "R1"); ("R4", "R1") ]
  in
  Alcotest.(check string) "root" "R1" (Join_tree.root jt);
  Alcotest.(check (list string))
    "children" [ "R2"; "R3"; "R4" ]
    (Join_tree.children jt "R1");
  Alcotest.(check (list string)) "siblings of R3" [ "R2"; "R4" ]
    (Join_tree.siblings jt "R3");
  Alcotest.check Tgen.schema_testable "link of R3" (schema [ "A" ])
    (Join_tree.link_schema jt "R3");
  Alcotest.check Tgen.schema_testable "link of root" Schema.empty
    (Join_tree.link_schema jt "R1");
  Alcotest.(check int) "max degree" 3 (Join_tree.max_degree jt);
  Alcotest.(check bool) "not a path" false (Join_tree.is_path jt)

let test_join_tree_invalid_raises () =
  (* Hanging R3(A,E) off R4(B,F) breaks running intersection: R3 and R1
     share A but the R3-R4 link carries nothing. *)
  Alcotest.(check bool) "invalid tree rejected" true
    (match
       Join_tree.make fig1_cq ~root:"R1"
         ~parents:[ ("R2", "R1"); ("R4", "R1"); ("R3", "R4") ]
     with
    | exception Errors.Schema_error _ -> true
    | _ -> false);
  (* Not spanning: R4 unreachable. *)
  Alcotest.(check bool) "non-spanning rejected" true
    (match
       Join_tree.make fig1_cq ~root:"R1"
         ~parents:[ ("R2", "R1"); ("R3", "R1") ]
     with
    | exception Errors.Schema_error _ -> true
    | _ -> false)

let test_join_tree_two_parents () =
  Alcotest.check_raises "two parents rejected"
    (Errors.Schema_error "join tree gives R2 two parents") (fun () ->
      ignore
        (Join_tree.make fig1_cq ~root:"R1"
           ~parents:[ ("R2", "R1"); ("R2", "R3"); ("R3", "R1"); ("R4", "R1") ]));
  Alcotest.check_raises "root with a parent"
    (Errors.Schema_error "join tree root R1 has a parent") (fun () ->
      ignore
        (Join_tree.make fig1_cq ~root:"R1"
           ~parents:
             [ ("R1", "R2"); ("R2", "R1"); ("R3", "R1"); ("R4", "R1") ]))

let test_join_tree_path_shape () =
  let jt = Join_tree.of_cq_exn path4_cq in
  Alcotest.(check bool) "path tree is a chain" true (Join_tree.is_path jt);
  Alcotest.(check int) "chain degree 2" 2 (Join_tree.max_degree jt)

(* ------------------------------------------------------------------ *)
(* Ghd *)

let test_ghd_of_join_tree () =
  let g = Ghd.of_join_tree (Join_tree.of_cq_exn fig1_cq) in
  Alcotest.(check int) "width 1" 1 (Ghd.width g);
  Alcotest.(check (list string)) "bag of R2" [ "R2" ] (Ghd.members g "R2");
  Alcotest.(check string) "owner" "R3" (Ghd.bag_of g "R3")

let test_ghd_auto_triangle () =
  let g = Ghd.auto triangle_cq in
  Alcotest.(check int) "width 2" 2 (Ghd.width g);
  Alcotest.(check bool) "bag cq acyclic" true (Gyo.is_acyclic (Ghd.bag_cq g));
  (* Every atom is in exactly one bag. *)
  let all = List.concat_map (Ghd.members g) (Ghd.bag_names g) in
  Alcotest.(check (list string))
    "partition"
    [ "R1"; "R2"; "R3" ]
    (List.sort String.compare all)

let test_ghd_auto_square () =
  (* Paper Figure 5b: q□ decomposes into R1R2(A,B,C) and R3R4(C,D,A). *)
  let g = Ghd.auto square_cq in
  Alcotest.(check int) "width 2" 2 (Ghd.width g);
  Alcotest.(check int) "two bags" 2 (List.length (Ghd.bag_names g))

let test_ghd_manual () =
  let g =
    Ghd.make square_cq
      ~bags:[ ("top", [ "R1"; "R2" ]); ("bottom", [ "R3"; "R4" ]) ]
      ~root:"top"
      ~parents:[ ("bottom", "top") ]
  in
  Alcotest.(check int) "width" 2 (Ghd.width g);
  Alcotest.check Tgen.schema_testable "bag schema"
    (schema [ "A"; "B"; "C" ])
    (Cq.schema_of (Ghd.bag_cq g) "top")

let test_ghd_manual_invalid () =
  Alcotest.(check bool) "atom in two bags" true
    (match
       Ghd.make triangle_cq
         ~bags:[ ("x", [ "R1"; "R2" ]); ("y", [ "R2"; "R3" ]) ]
         ~root:"x" ~parents:[ ("y", "x") ]
     with
    | exception Errors.Schema_error _ -> true
    | _ -> false);
  Alcotest.(check bool) "atom in no bag" true
    (match
       Ghd.make triangle_cq
         ~bags:[ ("x", [ "R1"; "R2" ]) ]
         ~root:"x" ~parents:[]
     with
    | exception Errors.Schema_error _ -> true
    | _ -> false)

let test_ghd_auto_disconnected_raises () =
  Alcotest.check_raises "auto needs connectivity"
    (Errors.Schema_error
       "Ghd.auto: CQ disc is disconnected; decompose components separately")
    (fun () -> ignore (Ghd.auto disconnected_cq))

(* ------------------------------------------------------------------ *)
(* Classify *)

let test_classify_path () =
  (match Classify.path_order path4_cq with
  | Some order ->
      Alcotest.(check (list string))
        "order" [ "R1"; "R2"; "R3"; "R4" ] order
  | None -> Alcotest.fail "path4 is a path");
  Alcotest.(check bool) "fig1 not a path" true
    (Classify.path_order fig1_cq = None);
  Alcotest.(check bool) "triangle not a path" true
    (Classify.path_order triangle_cq = None);
  (* Two atoms sharing one attribute form a path. *)
  let two = Cq.make [ ("S", [ "A"; "B" ]); ("T", [ "B"; "C" ]) ] in
  Alcotest.(check bool) "two-atom path" true (Classify.path_order two <> None)

let test_classify_shapes () =
  let check name expected cq =
    Alcotest.(check string)
      name expected
      (Format.asprintf "%a" Classify.pp_shape (Classify.classify cq))
  in
  check "path4" "path (R1 - R2 - R3 - R4)" path4_cq;
  check "fig1 doubly acyclic" "doubly acyclic" fig1_cq;
  check "star acyclic only" "acyclic" star_cq;
  check "triangle cyclic" "cyclic" triangle_cq;
  check "square cyclic" "cyclic" square_cq;
  (* Disconnected: classified by the most general component. *)
  check "disconnected" "path (R1 - R2)" disconnected_cq

let test_classify_edge_cases () =
  let shape cq = Format.asprintf "%a" Classify.pp_shape (Classify.classify cq) in
  (* A single atom is the degenerate one-relation path. *)
  Alcotest.(check string) "single atom" "path (R)"
    (shape (Cq.make [ ("R", [ "A"; "B" ]) ]));
  (* Lonely attributes (bound by one atom only) do not break path shape:
     q1's Lineitem carries SK and PK the same way. *)
  Alcotest.(check string) "path with lonely attributes" "path (R1 - R2)"
    (shape (Cq.make [ ("R1", [ "A"; "B"; "X"; "Y" ]); ("R2", [ "B"; "C" ]) ]));
  (* Disconnected query with a cyclic component: the most general
     component decides the class. *)
  Alcotest.(check string) "disconnected cyclic component" "cyclic"
    (shape
       (Cq.make
          [
            ("S", [ "U"; "V" ]);
            ("R1", [ "A"; "B" ]);
            ("R2", [ "B"; "C" ]);
            ("R3", [ "C"; "A" ]);
          ]));
  (* The GYO failure witness: ears are stripped, the stuck core remains. *)
  let lollipop =
    Cq.make
      [
        ("Ear", [ "X"; "A" ]);
        ("R1", [ "A"; "B" ]);
        ("R2", [ "B"; "C" ]);
        ("R3", [ "C"; "A" ]);
      ]
  in
  (match Gyo.decompose lollipop with
  | Gyo.Cyclic residual ->
      Alcotest.(check (list string))
        "residual excludes the ear" [ "R1"; "R2"; "R3" ]
        (List.sort String.compare residual)
  | Gyo.Acyclic _ -> Alcotest.fail "lollipop should be cyclic");
  match Gyo.decompose square_cq with
  | Gyo.Cyclic residual ->
      Alcotest.(check (list string))
        "square residual is all four atoms"
        [ "R1"; "R2"; "R3"; "R4" ]
        (List.sort String.compare residual)
  | Gyo.Acyclic _ -> Alcotest.fail "square should be cyclic"

let test_classify_doubly_acyclic () =
  Alcotest.(check bool) "fig1 paper tree doubly acyclic" true
    (Classify.is_doubly_acyclic
       (Join_tree.make fig1_cq ~root:"R1"
          ~parents:[ ("R2", "R1"); ("R3", "R1"); ("R4", "R1") ]));
  (* q*'s join tree roots the triangle relation over the three edges:
     the children form a cyclic sub-query. *)
  let jt =
    Join_tree.make star_cq ~root:"Rt"
      ~parents:[ ("R1", "Rt"); ("R2", "Rt"); ("R3", "Rt") ]
  in
  Alcotest.(check bool) "star not doubly acyclic" false
    (Classify.is_doubly_acyclic jt)

(* ------------------------------------------------------------------ *)
(* Parser *)

let test_parser_round_trip () =
  let q = Parser.parse "Q(A,B,C) :- R1(A,B), R2(B,C)." in
  Alcotest.(check string) "name" "Q" (Cq.name q);
  Alcotest.(check (list string)) "atoms" [ "R1"; "R2" ] (Cq.relation_names q);
  Alcotest.check Tgen.schema_testable "R1 schema"
    (schema [ "A"; "B" ])
    (Cq.schema_of q "R1");
  (* pp output parses back to an equal query. *)
  let q2 = Parser.parse (Cq.to_string q) in
  Alcotest.(check bool) "round trip" true (Cq.equal q q2)

let test_parser_star_head () =
  let q = Parser.parse "Path(*) :- R1(A,B), R2(B,C)" in
  Alcotest.(check string) "name" "Path" (Cq.name q);
  let q' = Parser.parse "Bare :- R1(A,B), R2(B,C)" in
  Alcotest.(check string) "bare head" "Bare" (Cq.name q')

let test_parser_comments_whitespace () =
  let q =
    Parser.parse
      "Q(*) :- % the first atom\n  R1(A, B),\n  R2(B, C). % done\n"
  in
  Alcotest.(check int) "two atoms" 2 (Cq.atom_count q)

let test_parser_errors () =
  let fails input =
    match Parser.parse input with
    | exception (Parser.Parse_error _ | Errors.Schema_error _) -> true
    | _ -> false
  in
  Alcotest.(check bool) "missing body" true (fails "Q(A) :- ");
  Alcotest.(check bool) "bad token" true (fails "Q(A) :- R1(A$B)");
  Alcotest.(check bool) "missing turnstile" true (fails "Q(A) R1(A)");
  Alcotest.(check bool) "head mismatch" true (fails "Q(A) :- R1(A,B)");
  Alcotest.(check bool) "trailing junk" true (fails "Q(A) :- R1(A). extra");
  Alcotest.(check bool) "self join" true (fails "Q(*) :- R(A), R(B)");
  Alcotest.(check bool) "parse_opt none" true
    (Parser.parse_opt "Q(A) :-" = None)

let test_parser_head_order_insensitive () =
  let q = Parser.parse "Q(C,A,B) :- R1(A,B), R2(B,C)." in
  Alcotest.(check int) "accepted" 2 (Cq.atom_count q)

let test_parser_constraints () =
  let cq, cs =
    Parser.parse_full
      "Q(*) :- R1(A,B), R2(B,C), B = 'b1', A < 10, C != 3, A >= -2."
  in
  Alcotest.(check int) "atoms" 2 (Cq.atom_count cq);
  Alcotest.(check int) "constraints" 4 (List.length cs);
  Alcotest.(check string)
    "rendering" "B = b1, A < 10, C != 3, A >= -2"
    (Format.asprintf "%a" Constraints.pp_list cs);
  (* parse rejects constrained queries. *)
  Alcotest.(check bool) "parse refuses constraints" true
    (match Parser.parse "Q(*) :- R1(A,B), A = 1" with
    | exception Errors.Schema_error _ -> true
    | _ -> false);
  (* constraints must mention body variables. *)
  Alcotest.(check bool) "unknown variable rejected" true
    (match Parser.parse_full "Q(*) :- R1(A,B), Z = 1" with
    | exception Errors.Schema_error _ -> true
    | _ -> false);
  (* literal forms *)
  let _, cs = Parser.parse_full "Q(*) :- R1(A,B), A = true, B = 'x y'" in
  Alcotest.(check int) "bool and spaced string" 2 (List.length cs)

(* Any input parses or fails with a positioned error: no exception and
   no error without a span. *)
let prop_parser_fuzz =
  Tgen.qtest ~count:500 "fuzzed input: query or positioned error"
    (Tgen.fuzz_text_gen ~prefix:"Q(*) :- "
       [
         "Q"; "R1"; "A"; "b_2"; "x'"; "("; ")"; "*"; ","; ":-"; ":"; "-";
         "."; "%c\n"; "="; "!="; "!"; "<"; "<="; ">"; ">="; "'s t'"; "'";
         "0"; "42"; "-7"; "99999999999999999999"; "true"; "false";
       ])
    (Printf.sprintf "%S")
    (fun text -> Tgen.positioned text (Parser.parse_raw text))

let test_parser_integer_out_of_range () =
  let text = "Q(*) :- R(A), A < 99999999999999999999" in
  match Parser.parse_raw text with
  | Error (_, Some span) ->
      Alcotest.(check string) "spans the literal" "99999999999999999999"
        (Srcspan.extract text span)
  | Error (_, None) -> Alcotest.fail "error without a span"
  | Ok _ -> Alcotest.fail "accepted"

(* ------------------------------------------------------------------ *)
(* Lexer *)

(* Any input lexes to tokens whose spans lie inside it, non-empty, in
   increasing order and without overlap, or fails with a span inside
   it. *)
let prop_lexer_fuzz =
  let inside text (span : Srcspan.t) =
    0 <= span.start_ofs
    && span.start_ofs <= span.stop_ofs
    && span.stop_ofs <= String.length text
  in
  Tgen.qtest ~count:500 "fuzzed input: ordered token spans or positioned error"
    (Tgen.fuzz_text_gen ~prefix:"Q(*) :- "
       [
         "Q"; "R1"; "x'"; "SELECT"; "("; ")"; "*"; ","; ":-"; ":"; "-";
         "."; ";"; "%c\n"; "--c\n"; "="; "!="; "<>"; "!"; "<"; "<=";
         ">"; ">="; "'s t'"; "'"; "0"; "-7"; "99999999999999999999";
       ])
    (Printf.sprintf "%S")
    (fun text ->
      match Lexer.tokenize text with
      | exception Lexer.Syntax_error (_, span) -> inside text span
      | tokens ->
          let rec ordered prev = function
            | [] -> true
            | (_, (span : Srcspan.t)) :: rest ->
                inside text span
                && prev <= span.start_ofs
                && span.start_ofs < span.stop_ofs
                && ordered span.stop_ofs rest
          in
          ordered 0 tokens)

(* Both comment styles, [<>] and primed identifiers work in both
   syntaxes. *)
let test_lexer_shared_syntax () =
  let same_query name text reference =
    Alcotest.(check bool) name true
      (Cq.equal (Parser.parse text) (Parser.parse reference))
  in
  same_query "datalog -- comment" "Q(*) :- R1(A,B), -- then R2\n R2(B,C)."
    "Q(*) :- R1(A,B), R2(B,C).";
  let primed = Parser.parse "Q'(*) :- R'(A',B), S(B)." in
  Alcotest.(check (list string)) "datalog primed identifiers" [ "A'"; "B" ]
    (Schema.attrs (Cq.schema_of primed "R'"));
  let _, cs = Parser.parse_full "Q(*) :- R(A), A <> 3" in
  Alcotest.(check string) "datalog <>" "A != 3"
    (Format.asprintf "%a" Constraints.pp_list cs);
  let catalog = [ ("R'", [ "A'"; "B" ]); ("S", [ "B" ]) ] in
  let t =
    Sql.translate ~catalog
      "SELECT COUNT(*) % primed names\nFROM R' r, S WHERE r.B = S.B AND \
       r.A' <> 1"
  in
  Alcotest.(check (list string)) "sql % comment, primed tables" [ "R'"; "S" ]
    (Cq.relation_names t.Sql.query);
  Alcotest.(check string) "sql primed column" "A' != 1"
    (Format.asprintf "%a" Constraints.pp_list t.Sql.constraints)

(* The lexical errors, each with its message and span, through both
   front ends. *)
let test_lexer_errors () =
  let cases =
    [
      ("A ! 3", "expected '=' after '!'", "!");
      ("A : 3", "expected '-' after ':'", ":");
      ("A = 'oops", "unterminated string literal", "'oops");
      ( "A < 99999999999999999999",
        "integer 99999999999999999999 is out of range",
        "99999999999999999999" );
    ]
  in
  List.iter
    (fun (cond, message, spanned) ->
      List.iter
        (fun (front, text, result) ->
          match result with
          | Error (msg, Some span) ->
              Alcotest.(check string) (front ^ " message: " ^ cond) message msg;
              Alcotest.(check string)
                (front ^ " span: " ^ cond)
                spanned (Srcspan.extract text span)
          | Error (_, None) -> Alcotest.failf "%s %s: no span" front cond
          | Ok _ -> Alcotest.failf "%s %s: accepted" front cond)
        (let datalog = "Q(*) :- R(A), " ^ cond
         and sql = "SELECT COUNT(*) FROM R WHERE " ^ cond in
         [
           ("datalog", datalog, Result.map ignore (Parser.parse_raw datalog));
           ("sql", sql, Result.map ignore (Sql.parse_from sql));
         ]))
    cases

let test_constraints_holds () =
  let open Constraints in
  let v = Value.int in
  Alcotest.(check bool) "eq" true (holds { var = "A"; op = Eq; value = v 3 } (v 3));
  Alcotest.(check bool) "neq" true (holds { var = "A"; op = Neq; value = v 3 } (v 4));
  Alcotest.(check bool) "lt" true (holds { var = "A"; op = Lt; value = v 3 } (v 2));
  Alcotest.(check bool) "le fails" false
    (holds { var = "A"; op = Le; value = v 3 } (v 4));
  Alcotest.(check bool) "ge" true (holds { var = "A"; op = Ge; value = v 3 } (v 3));
  Alcotest.(check bool) "gt strings" true
    (holds { var = "A"; op = Gt; value = Value.str "a" } (Value.str "b"))

let test_constraints_selection () =
  let _, cs = Parser.parse_full "Q(*) :- R1(A,B), R2(B,C), A = 1, C < 5" in
  let pred = Option.get (Constraints.selection cs) in
  let v = Value.int in
  let s_r1 = Schema.of_list [ "A"; "B" ] in
  let s_r2 = Schema.of_list [ "B"; "C" ] in
  (* Constraints apply only through the attributes a relation has. *)
  Alcotest.(check bool) "R1 passes" true
    (pred "R1" s_r1 (Tuple.of_list [ v 1; v 9 ]));
  Alcotest.(check bool) "R1 fails on A" false
    (pred "R1" s_r1 (Tuple.of_list [ v 2; v 9 ]));
  Alcotest.(check bool) "R2 ignores A" true
    (pred "R2" s_r2 (Tuple.of_list [ v 9; v 4 ]));
  Alcotest.(check bool) "R2 fails on C" false
    (pred "R2" s_r2 (Tuple.of_list [ v 9; v 5 ]));
  Alcotest.(check bool) "empty list is None" true
    (Constraints.selection [] = None)

let test_constraints_satisfying_value () =
  let open Constraints in
  let v = Value.int in
  (* Prefers an admissible candidate. *)
  Alcotest.(check (option Tgen.value_testable))
    "first passing candidate" (Some (v 4))
    (satisfying_value
       [ { var = "A"; op = Gt; value = v 3 } ]
       "A" [ v 1; v 4; v 9 ]);
  (* Synthesizes when no candidate passes. *)
  (match
     satisfying_value [ { var = "A"; op = Eq; value = v 42 } ] "A" [ v 1 ]
   with
  | Some x -> Alcotest.check Tgen.value_testable "synthesized eq" (v 42) x
  | None -> Alcotest.fail "expected a value");
  (* Contradictions yield None. *)
  Alcotest.(check bool) "contradiction" true
    (satisfying_value
       [
         { var = "A"; op = Eq; value = v 1 }; { var = "A"; op = Eq; value = v 2 };
       ]
       "A" []
    = None);
  (* Unconstrained attributes take the first candidate. *)
  Alcotest.(check (option Tgen.value_testable))
    "unconstrained" (Some (v 7))
    (satisfying_value [] "B" [ v 7 ])

let () =
  Alcotest.run "query"
    [
      ( "cq",
        [
          Alcotest.test_case "validation" `Quick test_cq_validation;
          Alcotest.test_case "vars" `Quick test_cq_vars;
          Alcotest.test_case "components" `Quick test_cq_components;
          Alcotest.test_case "restrict" `Quick test_cq_restrict;
          Alcotest.test_case "project onto shared" `Quick
            test_cq_project_onto_shared;
          Alcotest.test_case "check database" `Quick test_cq_check_database;
        ] );
      ( "gyo",
        [
          Alcotest.test_case "fig1 acyclic" `Quick test_gyo_fig1_acyclic;
          Alcotest.test_case "cyclic detection" `Quick test_gyo_cyclic;
          Alcotest.test_case "elimination raises" `Quick
            test_gyo_elimination_raises;
        ] );
      ( "join_tree",
        [
          Alcotest.test_case "of_cq" `Quick test_join_tree_of_cq;
          Alcotest.test_case "triangle none" `Quick test_join_tree_triangle_none;
          Alcotest.test_case "paper shape" `Quick test_join_tree_paper_shape;
          Alcotest.test_case "invalid trees" `Quick
            test_join_tree_invalid_raises;
          Alcotest.test_case "two parents" `Quick test_join_tree_two_parents;
          Alcotest.test_case "path shape" `Quick test_join_tree_path_shape;
        ] );
      ( "ghd",
        [
          Alcotest.test_case "of_join_tree" `Quick test_ghd_of_join_tree;
          Alcotest.test_case "auto triangle" `Quick test_ghd_auto_triangle;
          Alcotest.test_case "auto square" `Quick test_ghd_auto_square;
          Alcotest.test_case "manual" `Quick test_ghd_manual;
          Alcotest.test_case "manual invalid" `Quick test_ghd_manual_invalid;
          Alcotest.test_case "auto disconnected" `Quick
            test_ghd_auto_disconnected_raises;
        ] );
      ( "classify",
        [
          Alcotest.test_case "path order" `Quick test_classify_path;
          Alcotest.test_case "shapes" `Quick test_classify_shapes;
          Alcotest.test_case "edge cases" `Quick test_classify_edge_cases;
          Alcotest.test_case "doubly acyclic" `Quick
            test_classify_doubly_acyclic;
        ] );
      ( "parser",
        [
          Alcotest.test_case "round trip" `Quick test_parser_round_trip;
          Alcotest.test_case "star head" `Quick test_parser_star_head;
          Alcotest.test_case "comments" `Quick test_parser_comments_whitespace;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "head order" `Quick
            test_parser_head_order_insensitive;
          Alcotest.test_case "constraints" `Quick test_parser_constraints;
          Alcotest.test_case "integer out of range" `Quick
            test_parser_integer_out_of_range;
          prop_parser_fuzz;
        ] );
      ( "lexer",
        [
          prop_lexer_fuzz;
          Alcotest.test_case "shared syntax" `Quick test_lexer_shared_syntax;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "constraints",
        [
          Alcotest.test_case "holds" `Quick test_constraints_holds;
          Alcotest.test_case "selection" `Quick test_constraints_selection;
          Alcotest.test_case "satisfying value" `Quick
            test_constraints_satisfying_value;
        ] );
    ]
