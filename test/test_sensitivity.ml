(* Tests for the sensitivity core: the paper's worked examples as exact
   fixtures, plus differential testing of TSens against the naive
   Theorem-3.1 oracle and the elastic baseline. *)

open Tsens_relational
open Tsens_query
open Tsens_sensitivity

let s = Value.str
let v = Value.int
let tup l = Tuple.of_list l
let schema l = Schema.of_list l

(* ------------------------------------------------------------------ *)
(* Fixtures: the paper's Figure 1 instance *)

let fig1_cq =
  Cq.make ~name:"fig1"
    [
      ("R1", [ "A"; "B"; "C" ]);
      ("R2", [ "A"; "B"; "D" ]);
      ("R3", [ "A"; "E" ]);
      ("R4", [ "B"; "F" ]);
    ]

let fig1_db =
  Database.of_list
    [
      ( "R1",
        Relation.of_rows ~schema:(schema [ "A"; "B"; "C" ])
          [
            [ s "a1"; s "b1"; s "c1" ];
            [ s "a1"; s "b2"; s "c1" ];
            [ s "a2"; s "b1"; s "c1" ];
          ] );
      ( "R2",
        Relation.of_rows ~schema:(schema [ "A"; "B"; "D" ])
          [ [ s "a1"; s "b1"; s "d1" ]; [ s "a2"; s "b2"; s "d2" ] ] );
      ( "R3",
        Relation.of_rows ~schema:(schema [ "A"; "E" ])
          [ [ s "a1"; s "e1" ]; [ s "a2"; s "e1" ]; [ s "a2"; s "e2" ] ] );
      ( "R4",
        Relation.of_rows ~schema:(schema [ "B"; "F" ])
          [ [ s "b1"; s "f1" ]; [ s "b2"; s "f1" ]; [ s "b2"; s "f2" ] ] );
    ]

(* The paper's Figure 3 path instance (the one whose T2 is shown). *)
let fig3_cq =
  Cq.make ~name:"path4"
    [
      ("R1", [ "A"; "B" ]);
      ("R2", [ "B"; "C" ]);
      ("R3", [ "C"; "D" ]);
      ("R4", [ "D"; "E" ]);
    ]

let fig3_db =
  Database.of_list
    [
      ( "R1",
        Relation.create ~schema:(schema [ "A"; "B" ])
          [
            (tup [ s "a1"; s "b1" ], 1);
            (tup [ s "a1"; s "b2" ], 1);
            (tup [ s "a2"; s "b2" ], 2);
          ] );
      ( "R2",
        Relation.create ~schema:(schema [ "B"; "C" ])
          [
            (tup [ s "b1"; s "c1" ], 1);
            (tup [ s "b1"; s "c2" ], 1);
            (tup [ s "b2"; s "c1" ], 2);
          ] );
      ( "R3",
        Relation.create ~schema:(schema [ "C"; "D" ])
          [
            (tup [ s "c1"; s "d1" ], 2);
            (tup [ s "c2"; s "d1" ], 1);
            (tup [ s "c2"; s "d2" ], 1);
          ] );
      ( "R4",
        Relation.create ~schema:(schema [ "D"; "E" ])
          [
            (tup [ s "d1"; s "e1" ], 1);
            (tup [ s "d1"; s "e2" ], 1);
            (tup [ s "d1"; s "e3" ], 1);
            (tup [ s "d2"; s "e4" ], 1);
          ] );
    ]

let per_relation_testable = Alcotest.(list (pair string int))

(* ------------------------------------------------------------------ *)
(* Worked example: Figure 1 *)

let test_fig1_tsens () =
  let a = Tsens.analyze fig1_cq fig1_db in
  let r = Tsens.result a in
  Alcotest.(check int) "LS" 4 r.Sens_types.local_sensitivity;
  Alcotest.(check int) "|Q(D)|" 1 (Tsens.output_size a);
  Alcotest.check per_relation_testable "per relation"
    [ ("R1", 4); ("R2", 2); ("R3", 1); ("R4", 1) ]
    r.Sens_types.per_relation;
  match r.Sens_types.witness with
  | None -> Alcotest.fail "expected a witness"
  | Some w ->
      Alcotest.(check string) "witness relation" "R1" w.Sens_types.relation;
      Alcotest.check Tgen.tuple_testable "witness tuple (Example 2.1)"
        (tup [ s "a2"; s "b2"; s "c1" ])
        w.Sens_types.tuple

let test_fig1_tuple_sensitivities () =
  let a = Tsens.analyze fig1_cq fig1_db in
  (* Example 2.1: removing (a1,b1,c1) from R1 changes the output by 1;
     (a2,b2,c1) has sensitivity 4. *)
  Alcotest.(check int) "delta of (a1,b1,c1)" 1
    (Tsens.tuple_sensitivity a "R1" (tup [ s "a1"; s "b1"; s "c1" ]));
  Alcotest.(check int) "delta of (a2,b2,c1)" 4
    (Tsens.tuple_sensitivity a "R1" (tup [ s "a2"; s "b2"; s "c1" ]));
  (* A tuple whose join keys appear nowhere has sensitivity 0. *)
  Alcotest.(check int) "unjoinable tuple" 0
    (Tsens.tuple_sensitivity a "R1" (tup [ s "zz"; s "zz"; s "zz" ]));
  Alcotest.check_raises "arity check"
    (Errors.Data_error "tuple (zz) does not match schema (A, B, C) of R1")
    (fun () -> ignore (Tsens.tuple_sensitivity a "R1" (tup [ s "zz" ])))

let test_fig1_matches_naive () =
  let tsens = Tsens.local_sensitivity fig1_cq fig1_db in
  let naive = Naive.local_sensitivity fig1_cq fig1_db in
  Alcotest.(check int)
    "LS agrees" naive.Sens_types.local_sensitivity
    tsens.Sens_types.local_sensitivity;
  Alcotest.check per_relation_testable "per relation agrees"
    naive.Sens_types.per_relation tsens.Sens_types.per_relation

let test_fig1_paper_join_tree_plan () =
  (* Running the DP over the paper's Figure 2 tree (R1 root) gives the
     same answer as the GYO-derived tree. *)
  let paper_tree =
    Join_tree.make fig1_cq ~root:"R1"
      ~parents:[ ("R2", "R1"); ("R3", "R1"); ("R4", "R1") ]
  in
  let with_plan =
    Tsens.local_sensitivity
      ~plans:[ Ghd.of_join_tree paper_tree ]
      fig1_cq fig1_db
  in
  let default = Tsens.local_sensitivity fig1_cq fig1_db in
  Alcotest.(check int)
    "LS agrees" default.Sens_types.local_sensitivity
    with_plan.Sens_types.local_sensitivity;
  Alcotest.check per_relation_testable "tables agree"
    default.Sens_types.per_relation with_plan.Sens_types.per_relation

(* ------------------------------------------------------------------ *)
(* Worked example: Figure 3 *)

let test_fig3_multiplicity_table () =
  let a = Tsens.analyze fig3_cq fig3_db in
  let t2 = Tsens.multiplicity_table a "R2" in
  (* The exact T2 of Figure 3. *)
  let expected =
    Relation.create ~schema:(schema [ "B"; "C" ])
      [
        (tup [ s "b1"; s "c1" ], 6);
        (tup [ s "b1"; s "c2" ], 4);
        (tup [ s "b2"; s "c1" ], 18);
        (tup [ s "b2"; s "c2" ], 12);
      ]
  in
  Alcotest.check Tgen.relation_semantic "T2" expected t2

let test_fig3_results () =
  let a = Tsens.analyze fig3_cq fig3_db in
  let r = Tsens.result a in
  Alcotest.(check int) "LS" 21 r.Sens_types.local_sensitivity;
  Alcotest.(check int) "|Q(D)|" 46 (Tsens.output_size a);
  Alcotest.(check int) "Yannakakis count" 46 (Yannakakis.count fig3_cq fig3_db);
  Alcotest.check per_relation_testable "per relation"
    [ ("R1", 12); ("R2", 18); ("R3", 21); ("R4", 15) ]
    r.Sens_types.per_relation;
  match r.Sens_types.witness with
  | None -> Alcotest.fail "expected a witness"
  | Some w ->
      Alcotest.(check string) "witness in R3" "R3" w.Sens_types.relation;
      Alcotest.check Tgen.tuple_testable "witness (c1,d1)"
        (tup [ s "c1"; s "d1" ])
        w.Sens_types.tuple

let test_example_4_1 () =
  (* Example 4.1's instance: removing R2(b1,c1) removes all 4 output
     tuples; inserting it when absent adds 4. *)
  let db =
    Database.of_list
      [
        ( "R1",
          Relation.of_rows ~schema:(schema [ "A"; "B" ])
            [ [ s "a1"; s "b1" ]; [ s "a2"; s "b1" ] ] );
        ( "R2",
          Relation.of_rows ~schema:(schema [ "B"; "C" ])
            [ [ s "b1"; s "c1" ]; [ s "b2"; s "c2" ] ] );
        ( "R3",
          Relation.of_rows ~schema:(schema [ "C"; "D" ])
            [ [ s "c1"; s "d1" ]; [ s "c1"; s "d2" ] ] );
        ( "R4",
          Relation.of_rows ~schema:(schema [ "D"; "E" ])
            [ [ s "d1"; s "e1" ]; [ s "d2"; s "e1" ] ] );
      ]
  in
  let a = Tsens.analyze fig3_cq db in
  Alcotest.(check int) "delta R2(b1,c1)" 4
    (Tsens.tuple_sensitivity a "R2" (tup [ s "b1"; s "c1" ]));
  Alcotest.(check int) "naive agrees" 4
    (Naive.tuple_sensitivity fig3_cq db "R2" (tup [ s "b1"; s "c1" ]))

(* ------------------------------------------------------------------ *)
(* Extensions: selections, disconnected queries, single atom *)

let test_selection () =
  (* Filtering R1 to B ≠ b2 invalidates the (a2,b2,c1) witness: tuples
     failing the predicate have sensitivity 0, and the other relations
     see the filtered R1. Hand-computed: LS = 2 at R2(a2,b1,·). *)
  let selection relation sch t =
    (not (String.equal relation "R1"))
    || not (Value.equal (Tuple.get t (Schema.index "B" sch)) (s "b2"))
  in
  let r = Tsens.local_sensitivity ~selection fig1_cq fig1_db in
  Alcotest.(check int) "LS" 2 r.Sens_types.local_sensitivity;
  Alcotest.check per_relation_testable "per relation"
    [ ("R1", 1); ("R2", 2); ("R3", 1); ("R4", 1) ]
    r.Sens_types.per_relation;
  (match r.Sens_types.witness with
  | Some w ->
      Alcotest.(check string) "witness relation" "R2" w.Sens_types.relation
  | None -> Alcotest.fail "expected witness");
  (* A failing tuple has sensitivity 0 even if its table entry is high. *)
  let a = Tsens.analyze ~selection fig1_cq fig1_db in
  Alcotest.(check int) "filtered tuple" 0
    (Tsens.tuple_sensitivity a "R1" (tup [ s "a2"; s "b2"; s "c1" ]))

let test_skip () =
  (* Skipped relations report the FK-superkey bound of 1 and carry no
     table; everything else is unaffected. *)
  let a = Tsens.analyze ~skip:[ "R3" ] fig1_cq fig1_db in
  let r = Tsens.result a in
  Alcotest.check per_relation_testable "per relation"
    [ ("R1", 4); ("R2", 2); ("R3", 1); ("R4", 1) ]
    r.Sens_types.per_relation;
  Alcotest.(check int) "LS unchanged" 4 r.Sens_types.local_sensitivity;
  Alcotest.check_raises "table of skipped relation"
    (Errors.Schema_error
       "the multiplicity table of R3 was skipped in this analysis")
    (fun () -> ignore (Tsens.multiplicity_table a "R3"));
  Alcotest.(check int) "other tables still there" 4
    (Relation.distinct_count (Tsens.multiplicity_table a "R2")
    + Relation.distinct_count (Tsens.multiplicity_table a "R4"));
  Alcotest.check_raises "unknown skip relation"
    (Errors.Schema_error "skip: relation R9 is not in query fig1") (fun () ->
      ignore (Tsens.analyze ~skip:[ "R9" ] fig1_cq fig1_db));
  (* Skipping everything still reports output size and all-ones. *)
  let all = Tsens.analyze ~skip:(Cq.relation_names fig1_cq) fig1_cq fig1_db in
  Alcotest.(check int) "output size" 1 (Tsens.output_size all);
  Alcotest.check per_relation_testable "all ones"
    [ ("R1", 1); ("R2", 1); ("R3", 1); ("R4", 1) ]
    (Tsens.result all).Sens_types.per_relation

let test_disconnected () =
  let cq =
    Cq.make ~name:"disc"
      [ ("R1", [ "A"; "B" ]); ("R2", [ "B"; "C" ]); ("R3", [ "X"; "Y" ]) ]
  in
  let db =
    Database.of_list
      [
        ( "R1",
          Relation.of_rows ~schema:(schema [ "A"; "B" ])
            [ [ v 1; v 1 ]; [ v 1; v 2 ] ] );
        ( "R2",
          Relation.create ~schema:(schema [ "B"; "C" ])
            [ (tup [ v 1; v 5 ], 2); (tup [ v 2; v 5 ], 1) ] );
        ( "R3",
          Relation.of_rows ~schema:(schema [ "X"; "Y" ])
            [ [ v 7; v 7 ]; [ v 8; v 8 ] ] );
      ]
  in
  let a = Tsens.analyze cq db in
  let r = Tsens.result a in
  Alcotest.(check int) "|Q(D)| = 3*2" 6 (Tsens.output_size a);
  Alcotest.check per_relation_testable "per relation"
    [ ("R1", 4); ("R2", 2); ("R3", 3) ]
    r.Sens_types.per_relation;
  Alcotest.(check int) "LS" 4 r.Sens_types.local_sensitivity;
  let naive = Naive.local_sensitivity cq db in
  Alcotest.(check int)
    "naive agrees" r.Sens_types.local_sensitivity
    naive.Sens_types.local_sensitivity;
  Alcotest.check per_relation_testable "naive per relation"
    naive.Sens_types.per_relation r.Sens_types.per_relation

let test_single_atom () =
  let cq = Cq.make [ ("R", [ "A"; "B" ]) ] in
  let db =
    Database.of_list
      [ ("R", Relation.of_rows ~schema:(schema [ "A"; "B" ]) [ [ v 1; v 2 ] ]) ]
  in
  let r = Tsens.local_sensitivity cq db in
  Alcotest.(check int) "LS is 1" 1 r.Sens_types.local_sensitivity;
  let naive = Naive.local_sensitivity cq db in
  Alcotest.(check int) "naive agrees" 1 naive.Sens_types.local_sensitivity;
  (* Even on an empty relation: inserting any tuple adds one output row. *)
  let empty_db =
    Database.of_list [ ("R", Relation.empty (schema [ "A"; "B" ])) ]
  in
  let r0 = Tsens.local_sensitivity cq empty_db in
  Alcotest.(check int) "LS on empty" 1 r0.Sens_types.local_sensitivity

(* ------------------------------------------------------------------ *)
(* Cyclic queries through GHDs *)

let triangle_cq =
  Cq.make ~name:"triangle"
    [ ("R1", [ "A"; "B" ]); ("R2", [ "B"; "C" ]); ("R3", [ "C"; "A" ]) ]

let triangle_db rows1 rows2 rows3 =
  let edge name attrs rows =
    (name, Relation.of_rows ~schema:(schema attrs) rows)
  in
  Database.of_list
    [
      edge "R1" [ "A"; "B" ] rows1;
      edge "R2" [ "B"; "C" ] rows2;
      edge "R3" [ "C"; "A" ] rows3;
    ]

let test_triangle_ghd () =
  let db =
    triangle_db
      [ [ v 1; v 2 ]; [ v 1; v 3 ] ]
      [ [ v 2; v 4 ]; [ v 3; v 4 ]; [ v 3; v 5 ] ]
      [ [ v 4; v 1 ]; [ v 5; v 1 ] ]
  in
  let auto = Tsens.local_sensitivity triangle_cq db in
  let naive = Naive.local_sensitivity triangle_cq db in
  Alcotest.(check int)
    "auto GHD matches naive" naive.Sens_types.local_sensitivity
    auto.Sens_types.local_sensitivity;
  Alcotest.check per_relation_testable "per relation"
    naive.Sens_types.per_relation auto.Sens_types.per_relation;
  (* The paper's Figure 5b decomposition {R1R2(A,B,C), R3(C,A)} gives the
     same answer. *)
  let manual =
    Ghd.make triangle_cq
      ~bags:[ ("R1R2", [ "R1"; "R2" ]); ("R3", [ "R3" ]) ]
      ~root:"R1R2"
      ~parents:[ ("R3", "R1R2") ]
  in
  let with_manual =
    Tsens.local_sensitivity ~plans:[ manual ] triangle_cq db
  in
  Alcotest.check per_relation_testable "manual GHD agrees"
    auto.Sens_types.per_relation with_manual.Sens_types.per_relation

(* ------------------------------------------------------------------ *)
(* Property-based differential testing *)

(* A catalogue of query shapes covering path / doubly-acyclic / acyclic /
   cyclic / disconnected structure. *)
let shape_catalogue =
  [
    Cq.make ~name:"single" [ ("R1", [ "A"; "B" ]) ];
    Cq.make ~name:"path2" [ ("R1", [ "A"; "B" ]); ("R2", [ "B"; "C" ]) ];
    fig3_cq;
    fig1_cq;
    triangle_cq;
    Cq.make ~name:"square"
      [
        ("R1", [ "A"; "B" ]);
        ("R2", [ "B"; "C" ]);
        ("R3", [ "C"; "D" ]);
        ("R4", [ "D"; "A" ]);
      ];
    Cq.make ~name:"star"
      [
        ("Rt", [ "A"; "B"; "C" ]);
        ("R1", [ "A"; "B" ]);
        ("R2", [ "B"; "C" ]);
        ("R3", [ "C"; "A" ]);
      ];
    Cq.make ~name:"disc"
      [ ("R1", [ "A"; "B" ]); ("R2", [ "B"; "C" ]); ("R3", [ "X"; "Y" ]) ];
  ]

let instance_of cq =
  QCheck2.Gen.(
    let atom_gen atom =
      let arity = Schema.arity atom.Cq.schema in
      list_size (int_range 0 5)
        (pair (map Tuple.of_list (list_repeat arity (map Value.int (int_range 0 3))))
           (int_range 1 2))
      >>= fun rows ->
      return (atom.Cq.relation, Relation.create ~schema:atom.Cq.schema rows)
    in
    flatten_l (List.map atom_gen (Cq.atoms cq)) >>= fun rels ->
    return (cq, Database.of_list rels))

let instance_gen = QCheck2.Gen.(oneofl shape_catalogue >>= instance_of)

let print_instance (cq, db) =
  Format.asprintf "%a@.%a" Cq.pp cq Database.pp db

let prop_tsens_matches_naive =
  Tgen.qtest ~count:120 "TSens = naive oracle" instance_gen print_instance
    (fun (cq, db) ->
      let tsens = Tsens.local_sensitivity cq db in
      let naive = Naive.local_sensitivity cq db in
      tsens.Sens_types.local_sensitivity = naive.Sens_types.local_sensitivity
      && tsens.Sens_types.per_relation = naive.Sens_types.per_relation)

let prop_witness_attains_ls =
  Tgen.qtest ~count:120 "witness sensitivity equals LS" instance_gen
    print_instance (fun (cq, db) ->
      let r = Tsens.local_sensitivity cq db in
      match r.Sens_types.witness with
      | None -> r.Sens_types.local_sensitivity = 0
      | Some w ->
          Naive.tuple_sensitivity cq db w.Sens_types.relation
            w.Sens_types.tuple
          = r.Sens_types.local_sensitivity)

let prop_path_tables_within_theorem_4_1 =
  Tgen.qtest ~count:120 "path tables within Theorem 4.1 space" instance_gen
    print_instance (fun (cq, db) ->
      Classify.path_order cq = None || Tgen.oversized_tables cq db = [])

let prop_elastic_upper_bounds_tsens =
  Tgen.qtest ~count:120 "elastic >= TSens" instance_gen print_instance
    (fun (cq, db) ->
      let elastic = Elastic.local_sensitivity cq db in
      let tsens = Tsens.local_sensitivity cq db in
      elastic.Sens_types.local_sensitivity
      >= tsens.Sens_types.local_sensitivity
      && List.for_all2
           (fun (r1, e) (r2, t) -> String.equal r1 r2 && e >= t)
           elastic.Sens_types.per_relation tsens.Sens_types.per_relation)

let prop_yannakakis_count_exact =
  Tgen.qtest ~count:120 "Yannakakis count = |join|" instance_gen
    print_instance (fun (cq, db) ->
      Yannakakis.count cq db
      = Relation.cardinality (Yannakakis.output cq db))

let prop_output_size_byproduct =
  Tgen.qtest ~count:120 "analysis output size = |Q(D)|" instance_gen
    print_instance (fun (cq, db) ->
      Tsens.output_size (Tsens.analyze cq db) = Yannakakis.count cq db)

let prop_selection_never_increases =
  Tgen.qtest ~count:120 "selection only lowers sensitivity" instance_gen
    print_instance (fun (cq, db) ->
      (* Keep tuples whose first value is even. *)
      let selection _rel _schema t =
        match Value.as_int (Tuple.get t 0) with
        | Some n -> n mod 2 = 0
        | None -> true
      in
      let filtered = Tsens.local_sensitivity ~selection cq db in
      let plain = Tsens.local_sensitivity cq db in
      filtered.Sens_types.local_sensitivity
      <= plain.Sens_types.local_sensitivity)

(* Random constraints on *shared* attributes of the instances [gen]
   draws. (Constraints on lonely attributes can make the DP's witness
   search conservative — see the Tsens documentation.) *)
let with_constraints gen =
  QCheck2.Gen.(
    gen >>= fun (cq, db) ->
    match Cq.shared_vars cq with
    | [] -> return (cq, db, []) (* single-atom shape: nothing to constrain *)
    | shared ->
    let attr_gen = oneofl shared in
    let op_gen =
      oneofl
        Tsens_query.Constraints.[ Eq; Neq; Lt; Le; Gt; Ge ]
    in
    list_size (int_range 1 2)
      (attr_gen >>= fun var ->
       op_gen >>= fun op ->
       int_range 0 3 >>= fun n ->
       return { Constraints.var; op; value = Value.int n })
    >>= fun cs -> return (cq, db, cs))

let print_constrained (cq, db, cs) =
  Format.asprintf "%a@.%a@.where %a" Cq.pp cq Database.pp db
    Constraints.pp_list cs

let prop_selection_matches_naive =
  (* The DP with selection must agree with the selection-aware oracle. *)
  Tgen.qtest ~count:100 "selection: TSens = naive oracle"
    (with_constraints instance_gen) print_constrained
    (fun (cq, db, cs) ->
      match Constraints.selection cs with
      | None -> true
      | Some selection ->
          let tsens = Tsens.local_sensitivity ~selection cq db in
          let naive = Naive.local_sensitivity ~selection cq db in
          tsens.Sens_types.local_sensitivity
          = naive.Sens_types.local_sensitivity
          && tsens.Sens_types.per_relation = naive.Sens_types.per_relation)

let prop_tables_entrywise_correct =
  Tgen.qtest ~count:60 "table entries = naive tuple sensitivity"
    instance_gen print_instance (fun (cq, db) ->
      (* Spot-check every multiplicity-table entry of the first relation
         against direct re-evaluation. *)
      let a = Tsens.analyze cq db in
      let relation = List.hd (Cq.relation_names cq) in
      let table = Tsens.multiplicity_table a relation in
      Relation.fold
        (fun row cnt acc ->
          acc
          &&
          let full = Tsens.witness_tuple a relation row in
          Naive.tuple_sensitivity cq db relation full = cnt)
        table true)

(* ------------------------------------------------------------------ *)
(* Random tree-shaped queries: structural coverage beyond the fixed
   catalogue. Each atom attaches to a random earlier atom sharing a
   random non-empty subset of its attributes plus fresh ones, so the
   query is acyclic and connected by construction. *)

let random_acyclic_instance_gen =
  QCheck2.Gen.(
    int_range 2 4 >>= fun atom_count ->
    let fresh_counter = ref 0 in
    let fresh () =
      incr fresh_counter;
      Printf.sprintf "X%d" !fresh_counter
    in
    let rec build atoms i =
      if i >= atom_count then return (List.rev atoms)
      else
        int_range 0 (i - 1) >>= fun parent_ix ->
        let _, parent_attrs = List.nth atoms (i - 1 - parent_ix) in
        (* non-empty random subset of the parent's attributes *)
        list_repeat (List.length parent_attrs) bool >>= fun mask ->
        let inherited =
          List.filteri (fun j _ -> List.nth mask j) parent_attrs
        in
        let inherited =
          if inherited = [] then [ List.hd parent_attrs ] else inherited
        in
        int_range 0 2 >>= fun fresh_count ->
        let attrs = inherited @ List.init fresh_count (fun _ -> fresh ()) in
        build ((Printf.sprintf "T%d" i, attrs) :: atoms) (i + 1)
    in
    int_range 1 3 >>= fun root_arity ->
    let root = ("T0", List.init root_arity (fun _ -> fresh ())) in
    build [ root ] 1 >>= fun atoms ->
    let cq = Cq.make ~name:"rand" atoms in
    let atom_gen atom =
      let arity = Schema.arity atom.Cq.schema in
      list_size (int_range 0 4)
        (pair
           (map Tuple.of_list
              (list_repeat arity (map Value.int (int_range 0 2))))
           (int_range 1 2))
      >>= fun rows ->
      return (atom.Cq.relation, Relation.create ~schema:atom.Cq.schema rows)
    in
    flatten_l (List.map atom_gen (Cq.atoms cq)) >>= fun rels ->
    return (cq, Database.of_list rels))

let instance_gen = QCheck2.Gen.(oneofl shape_catalogue >>= instance_of)

let prop_random_trees_acyclic =
  Tgen.qtest ~count:150 "random tree queries are acyclic"
    random_acyclic_instance_gen print_instance (fun (cq, _) ->
      Gyo.is_acyclic cq && Join_tree.of_cq cq <> None)

let prop_random_trees_match_naive =
  Tgen.qtest ~count:100 "random tree queries: TSens = naive + witness"
    random_acyclic_instance_gen print_instance (fun (cq, db) ->
      let tsens = Tsens.local_sensitivity cq db in
      let naive = Naive.local_sensitivity cq db in
      tsens.Sens_types.per_relation = naive.Sens_types.per_relation
      && tsens.Sens_types.local_sensitivity
         = naive.Sens_types.local_sensitivity
      &&
      match tsens.Sens_types.witness with
      | None -> tsens.Sens_types.local_sensitivity = 0
      | Some w ->
          Naive.tuple_sensitivity cq db w.Sens_types.relation
            w.Sens_types.tuple
          = tsens.Sens_types.local_sensitivity)

let prop_random_trees_parser_round_trip =
  Tgen.qtest ~count:150 "datalog rendering parses back"
    random_acyclic_instance_gen print_instance (fun (cq, _) ->
      Cq.equal cq (Parser.parse (Cq.to_string cq)))

(* ------------------------------------------------------------------ *)
(* Top-sensitive enumeration and statistics *)

let test_top_sensitive_fig3 () =
  (* T2's four entries (18, 12, 6, 4) come out heaviest first, extended
     over R2's atom schema. *)
  let a = Tsens.analyze fig3_cq fig3_db in
  let top = Tsens.top_sensitive a "R2" 3 in
  Alcotest.(check (list int)) "counts" [ 18; 12; 6 ] (List.map snd top);
  Alcotest.check Tgen.tuple_testable "heaviest tuple"
    (tup [ s "b2"; s "c1" ])
    (fst (List.hd top));
  Alcotest.(check int) "asking beyond the table" 4
    (List.length (Tsens.top_sensitive a "R2" 99));
  Alcotest.(check (list int)) "zero" [] (List.map snd (Tsens.top_sensitive a "R2" 0));
  Alcotest.(check bool) "negative raises" true
    (match Tsens.top_sensitive a "R2" (-1) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* [top_sensitive] returns whole rows in order, against a full sort of
   the materialized table, for every k around the table's size. *)
let top_sensitive_matches_table a relation =
  let sorted = Array.copy (Relation.rows (Tsens.multiplicity_table a relation)) in
  Array.sort
    (fun (t1, c1) (t2, c2) ->
      match compare c2 c1 with 0 -> Tuple.compare t1 t2 | c -> c)
    sorted;
  let size = Array.length sorted in
  List.for_all
    (fun k ->
      let expected =
        Array.to_list sorted
        |> List.filteri (fun i _ -> i < k)
        |> List.map (fun (row, c) -> (Tsens.witness_tuple a relation row, c))
      in
      List.equal
        (fun (t1, c1) (t2, c2) -> Tuple.equal t1 t2 && Count.equal c1 c2)
        expected
        (Tsens.top_sensitive a relation k))
    [ 0; 1; 3; size; size + 5 ]

(* The instances' small values and counts tie often, and the catalogue
   yields both dense and factored tables. *)
let prop_top_sensitive_matches_table =
  Tgen.qtest ~count:120 "top_sensitive = sorted multiplicity table"
    instance_gen print_instance (fun (cq, db) ->
      let a = Tsens.analyze cq db in
      List.for_all (top_sensitive_matches_table a) (Cq.relation_names cq))

(* R's table is factored over parts (A) and (C, B): the second part lists
   its columns out of the table's (A, B, C) order. *)
let parts_cq =
  Cq.make ~name:"parts"
    [ ("R", [ "A"; "B"; "C" ]); ("S", [ "C"; "B" ]); ("T", [ "A" ]) ]

(* Every count ties, so only the tuple order decides the ranking. *)
let test_top_sensitive_part_order () =
  let cq = parts_cq in
  let rel attrs rows = Relation.of_rows ~schema:(Schema.of_list attrs) rows in
  let db =
    Database.of_list
      [
        ("R", rel [ "A"; "B"; "C" ] [ [ v 0; v 0; v 0 ] ]);
        ( "S",
          rel [ "C"; "B" ]
            [ [ v 0; v 1 ]; [ v 1; v 0 ]; [ v 0; v 0 ]; [ v 1; v 1 ] ] );
        ("T", rel [ "A" ] [ [ v 0 ]; [ v 1 ] ]);
      ]
  in
  let a = Tsens.analyze cq db in
  let _, tables = Tsens.statistics a in
  Alcotest.(check bool) "R's table is factored" true
    (List.exists
       (fun t -> t.Tsens.table_relation = "R" && t.Tsens.factored)
       tables);
  Alcotest.(check bool) "rows in order" true (top_sensitive_matches_table a "R")

(* A lonely attribute's value in witnesses and [top_sensitive] rows is
   the smallest one its base relation holds, whichever row the table
   entry came from. *)
let test_lonely_attribute_filler () =
  let cq = Cq.make [ ("R", [ "A"; "C" ]); ("S", [ "A" ]) ] in
  let db =
    Database.of_list
      [
        ( "R",
          Relation.of_rows ~schema:(Schema.of_list [ "A"; "C" ])
            [ [ v 1; v 5 ]; [ v 2; v 3 ]; [ v 1; v 7 ] ] );
        ( "S",
          Relation.create ~schema:(Schema.of_list [ "A" ])
            [ (tup [ v 1 ], 3); (tup [ v 2 ], 1) ] );
      ]
  in
  let a = Tsens.analyze ~skip:[ "S" ] cq db in
  Alcotest.(check (list (pair Tgen.tuple_testable int)))
    "top_sensitive rows"
    [ (tup [ v 1; v 3 ], 3); (tup [ v 2; v 3 ], 1) ]
    (Tsens.top_sensitive a "R" 5);
  match (Tsens.result a).Sens_types.witness with
  | None -> Alcotest.fail "expected a witness"
  | Some w ->
      Alcotest.check Tgen.tuple_testable "witness" (tup [ v 1; v 3 ])
        w.Sens_types.tuple

(* Each relation's witness, alone in an analysis that skips the others,
   is [top_sensitive]'s first row: the heaviest entry, ties broken by
   the smallest tuple in the table's column order — on factored tables
   whose parts list their columns out of that order too. *)
let witness_is_top_row ?selection (cq, db) =
  List.for_all
    (fun r ->
      let skip = List.filter (fun o -> not (String.equal o r)) (Cq.relation_names cq) in
      let a = Tsens.analyze ?selection ~skip cq db in
      match ((Tsens.result a).Sens_types.witness, Tsens.top_sensitive a r 1) with
      | None, [] -> true
      | Some w, [ (tuple, count) ] ->
          String.equal w.Sens_types.relation r
          && Tuple.equal w.Sens_types.tuple tuple
          && Count.equal w.Sens_types.sensitivity count
      | _ -> false)
    (Cq.relation_names cq)

let witness_instance_gen =
  QCheck2.Gen.(oneof [ instance_gen; instance_of parts_cq ])

let prop_witness_is_top_row =
  Tgen.qtest ~count:200 "witness = head of top_sensitive" witness_instance_gen
    print_instance witness_is_top_row

(* Rows failing the selection drop out of the ranking, and the witness
   is still the first row that survives. *)
let prop_selected_witness_is_top_row =
  Tgen.qtest ~count:200 "selection: witness = head of top_sensitive"
    (with_constraints witness_instance_gen) print_constrained
    (fun (cq, db, cs) ->
      match Constraints.selection cs with
      | None -> true
      | Some selection -> witness_is_top_row ~selection (cq, db))

let test_statistics_fig3 () =
  let a = Tsens.analyze fig3_cq fig3_db in
  let node_stats, table_stats = Tsens.statistics a in
  Alcotest.(check int) "four nodes" 4 (List.length node_stats);
  Alcotest.(check int) "four tables" 4 (List.length table_stats);
  Alcotest.(check bool) "interior tables factored" true
    (List.exists (fun t -> t.Tsens.factored) table_stats);
  List.iter
    (fun ns ->
      Alcotest.(check bool)
        (ns.Tsens.bag ^ " botjoin computed")
        true
        (ns.Tsens.botjoin_rows >= 0 && ns.Tsens.topjoin_rows >= 0))
    node_stats

(* ------------------------------------------------------------------ *)
(* Block tables *)

(* q3's OC bag in small: O's table T(CK, OK) = Σ_NK L(OK, NK) · N(NK) ·
   C(NK, CK), where L stands in for the topjoin. L always sends order 0
   to two nations, so only C can determine NK. *)
let oc_cq =
  Cq.make ~name:"oc"
    [
      ("L", [ "OK"; "NK" ]);
      ("O", [ "CK"; "OK" ]);
      ("C", [ "NK"; "CK" ]);
      ("N", [ "NK" ]);
    ]

let oc_ghd =
  Ghd.make oc_cq
    ~bags:[ ("L", [ "L" ]); ("OC", [ "O"; "C" ]); ("N", [ "N" ]) ]
    ~root:"L"
    ~parents:[ ("OC", "L"); ("N", "OC") ]

type oc_case = Holds | Broken | Tied

(* A customer's nation is [f ck]; [Broken] plants one more row that
   gives customer 0 a second nation, so that the table stays dense
   unless N holds at most one nation; [Tied] sets every count to 1. *)
let oc_instance_gen case =
  QCheck2.Gen.(
    let count = if case = Tied then return 1 else int_range 1 3 in
    let rows arity values =
      list_size (int_range 0 6)
        (pair (list_repeat arity (int_range 0 values)) count)
    in
    array_repeat 6 (int_range 0 3) >>= fun f ->
    list_repeat 5 bool >>= fun customers ->
    list_repeat 6 count >>= fun customer_counts ->
    rows 2 5 >>= fun l ->
    rows 1 3 >>= fun n ->
    count >>= fun c0 ->
    let rel attrs rows =
      Relation.create ~schema:(schema attrs)
        (List.map (fun (vs, c) -> (tup (List.map v vs), c)) rows)
    in
    let c =
      ([ f.(0); 0 ], c0)
      :: List.concat
           (List.mapi
              (fun i keep ->
                if keep then [ ([ f.(i + 1); i + 1 ], List.nth customer_counts i) ]
                else [])
              customers)
    in
    let c = if case = Broken then ([ (f.(0) + 1) mod 4; 0 ], 1) :: c else c in
    let l = ([ 0; 0 ], 1) :: ([ 0; 1 ], 1) :: l in
    return
      ( case,
        Database.of_list
          [
            ("L", rel [ "OK"; "NK" ] l);
            ("O", rel [ "CK"; "OK" ] [ ([ 0; 0 ], 1) ]);
            ("C", rel [ "NK"; "CK" ] c);
            ("N", rel [ "NK" ] n);
          ] ))

let print_oc_instance (case, db) =
  Format.asprintf "%s@.%a"
    (match case with Holds -> "holds" | Broken -> "broken" | Tied -> "tied")
    Database.pp db

(* Nations with an entry: in N, with a customer and an order line. *)
let oc_expected_blocks db =
  let nations name = Relation.active_domain "NK" (Database.find name db) in
  List.length
    (List.filter
       (fun nk -> List.mem nk (nations "C") && List.mem nk (nations "L"))
       (nations "N"))

(* O's table against the dense grouped join: the materialized table,
   every entry and absent tuple, the ranking for every prefix, the
   witness with and without a selection, and the number of blocks. *)
let prop_blocks_match_dense =
  Tgen.qtest ~count:300 "block table = dense grouped join"
    QCheck2.Gen.(oneofl [ Holds; Broken; Tied ] >>= oc_instance_gen)
    print_oc_instance
    (fun (case, db) ->
      let a = Tsens.analyze ~plans:[ oc_ghd ] oc_cq db in
      let dense =
        Join.join_project_all
          ~group:(schema [ "CK"; "OK" ])
          (List.map (fun r -> Database.find r db) [ "L"; "N"; "C" ])
      in
      let sorted = Array.copy (Relation.rows dense) in
      Array.sort
        (fun (t1, c1) (t2, c2) ->
          match compare c2 c1 with 0 -> Tuple.compare t1 t2 | c -> c)
        sorted;
      let stat =
        List.find
          (fun t -> t.Tsens.table_relation = "O")
          (snd (Tsens.statistics a))
      in
      let entries_agree =
        List.for_all
          (fun ck ->
            List.for_all
              (fun ok ->
                let t = tup [ v ck; v ok ] in
                Tsens.tuple_sensitivity a "O" t = Relation.count_of t dense)
              (List.init 8 Fun.id))
          (List.init 8 Fun.id)
      in
      let ranking_agrees =
        List.for_all
          (fun n ->
            Tsens.top_sensitive a "O" n
            = Array.to_list (Array.sub sorted 0 (min n (Array.length sorted))))
          (List.init (Array.length sorted + 2) Fun.id)
      in
      (* With the other tables skipped, the witness is the ranking's
         head, with and without a selection (orders with an even key),
         and the selection drops the failing rows from the ranking. *)
      let even_orders name _ t =
        name <> "O"
        || match Value.as_int (Tuple.get t 1) with
           | Some ok -> ok mod 2 = 0
           | None -> true
      in
      let witness_is_head selection =
        let a =
          Tsens.analyze ?selection ~skip:[ "L"; "C"; "N" ] ~plans:[ oc_ghd ]
            oc_cq db
        in
        let expected =
          List.filter
            (fun (t, _) ->
              match selection with None -> true | Some p -> p "O" Schema.empty t)
            (Array.to_list sorted)
        in
        Tsens.top_sensitive a "O" (List.length expected + 1) = expected
        &&
        match ((Tsens.result a).Sens_types.witness, expected) with
        | None, [] -> true
        | Some w, (t, c) :: _ ->
            Tuple.equal w.Sens_types.tuple t && w.Sens_types.sensitivity = c
        | _ -> false
      in
      let blocks_as_expected =
        match case with
        | Broken ->
            (* N alone determines NK when it holds at most one nation. *)
            Relation.distinct_count (Database.find "N" db) <= 1
            || (stat.Tsens.blocks = 1 && not stat.Tsens.factored)
        | Holds | Tied -> stat.Tsens.blocks = oc_expected_blocks db
      in
      Relation.equal (Tsens.multiplicity_table a "O") dense
      && entries_agree && ranking_agrees && blocks_as_expected
      && witness_is_head None
      && witness_is_head (Some even_orders))

(* Theorem 4.1's space bound, for q3's Orders table: its blocks store at
   most |Customer| + |⊤_OC| rows, where the dense table would hold the
   pairs of a nation's customers and orders. *)
let test_q3_orders_blocks_space () =
  let open Tsens_workload in
  let db = Tpch.generate ~seed:42 ~scale:0.0005 () in
  let a =
    Tsens.analyze ~skip:[ "Lineitem" ] ~plans:[ Queries.q3_ghd ] Queries.q3 db
  in
  let nodes, tables = Tsens.statistics a in
  let orders = List.find (fun t -> t.Tsens.table_relation = "Orders") tables in
  let top_oc =
    (List.find (fun n -> n.Tsens.bag = "OC") nodes).Tsens.topjoin_rows
  in
  let customers = Relation.distinct_count (Database.find "Customer" db) in
  Alcotest.(check bool) "Orders' table is blocked" true (orders.Tsens.blocks > 1);
  Alcotest.(check string) "representation"
    (Printf.sprintf "blocked (%d blocks)" orders.Tsens.blocks)
    (Tsens.representation orders);
  Alcotest.(check bool)
    (Printf.sprintf "%d stored rows <= %d customers + %d topjoin rows + %d"
       orders.Tsens.table_rows customers top_oc orders.Tsens.blocks)
    true
    (orders.Tsens.table_rows <= customers + top_oc + orders.Tsens.blocks)

(* A q3 instance small enough for the oracle, on which Orders' table
   splits by nation: a customer's nation is CK mod 3, and the order
   lines of one order come from suppliers of two nations. *)
let test_q3_blocks_match_naive () =
  let open Tsens_workload in
  let rel attrs rows =
    Relation.of_rows ~schema:(schema attrs) (List.map (List.map v) rows)
  in
  let partsupp = [| (0, 0); (1, 1); (2, 2); (3, 0); (1, 2) |] in
  let db =
    Database.of_list
      [
        ("Region", rel [ "RK" ] [ [ 0 ] ]);
        ("Nation", rel [ "RK"; "NK" ] [ [ 0; 0 ]; [ 0; 1 ]; [ 0; 2 ] ]);
        ("Supplier", rel [ "NK"; "SK" ] (List.init 4 (fun sk -> [ sk mod 3; sk ])));
        ("Part", rel [ "PK" ] [ [ 0 ]; [ 1 ]; [ 2 ] ]);
        ( "Partsupp",
          rel [ "SK"; "PK" ]
            (Array.to_list (Array.map (fun (sk, pk) -> [ sk; pk ]) partsupp)) );
        ("Customer", rel [ "NK"; "CK" ] (List.init 6 (fun ck -> [ ck mod 3; ck ])));
        ("Orders", rel [ "CK"; "OK" ] (List.init 8 (fun ok -> [ ok mod 6; ok ])));
        ( "Lineitem",
          rel [ "OK"; "SK"; "PK" ]
            (List.concat_map
               (fun ok ->
                 List.map
                   (fun i ->
                     let sk, pk = partsupp.(i mod 5) in
                     [ ok; sk; pk ])
                   [ ok; ok + 2 ])
               (List.init 8 Fun.id)) );
      ]
  in
  let plans = [ Queries.q3_ghd ] in
  let a = Tsens.analyze ~plans Queries.q3 db in
  let orders =
    List.find
      (fun t -> t.Tsens.table_relation = "Orders")
      (snd (Tsens.statistics a))
  in
  Alcotest.(check int) "Orders' table has a block per nation" 3
    orders.Tsens.blocks;
  let tsens = Tsens.result a in
  let naive = Naive.local_sensitivity Queries.q3 db in
  Alcotest.check per_relation_testable "per relation"
    naive.Sens_types.per_relation tsens.Sens_types.per_relation;
  Tgen.check_witness_attains_ls Queries.q3 db tsens

(* ------------------------------------------------------------------ *)
(* Top-k approximation *)

let acyclic_only cq =
  List.for_all (fun c -> Gyo.is_acyclic c) (Cq.components cq)

let prop_approx_upper_bounds_tsens =
  Tgen.qtest ~count:120 "top-k approx >= TSens" instance_gen print_instance
    (fun (cq, db) ->
      if not (acyclic_only cq) then true
      else
        let approx = Approx.local_sensitivity ~k:2 cq db in
        let tsens = Tsens.local_sensitivity cq db in
        List.for_all2
          (fun (r1, a) (r2, t) -> String.equal r1 r2 && a >= t)
          approx.Sens_types.per_relation tsens.Sens_types.per_relation)

let prop_approx_exact_with_large_k =
  Tgen.qtest ~count:120 "top-k approx with huge k is exact" instance_gen
    print_instance (fun (cq, db) ->
      if not (acyclic_only cq) then true
      else
        let approx = Approx.local_sensitivity ~k:1_000_000 cq db in
        let tsens = Tsens.local_sensitivity cq db in
        approx.Sens_types.per_relation = tsens.Sens_types.per_relation)

let test_approx_compresses () =
  let res, compressed = Approx.analyze ~k:1 fig3_cq fig3_db in
  let exact =
    Approx.intermediate_rows fig3_cq
      (fst (Tsens.statistics (Tsens.analyze fig3_cq fig3_db)))
  in
  Alcotest.(check bool) "compression shrinks tables" true (compressed < exact);
  Alcotest.(check bool) "still an upper bound" true
    (res.Sens_types.local_sensitivity >= 21)

(* The ablation's seed-42 bounds and intermediate sizes, as
   [bench topk] prints them: (k, LS bound, rows kept). *)
let test_approx_pinned_ablation () =
  let open Tsens_workload in
  let check label cq db plans exact_rows pins =
    Alcotest.(check int) (label ^ " exact rows") exact_rows
      (Approx.intermediate_rows cq
         (fst (Tsens.statistics (Tsens.analyze ~plans cq db))));
    List.iter
      (fun (k, ls, kept) ->
        let res, compressed = Approx.analyze ~k ~plans cq db in
        let name = Printf.sprintf "%s k=%d" label k in
        Alcotest.(check int) (name ^ " LS bound") ls
          res.Sens_types.local_sensitivity;
        Alcotest.(check int) (name ^ " rows kept") kept compressed)
      pins
  in
  check "q1" Queries.q1
    (Tpch.generate ~seed:42 ~scale:0.001 ())
    Queries.tpch_plans 3361
    [ (1, 8298, 9); (16, 3585, 107); (256, 2153, 873) ];
  check "qw" Queries.qw
    (Queries.facebook_database
       (Facebook.generate Facebook.default_params)
       Queries.qw)
    Queries.facebook_plans 1314
    [ (1, 234060, 7); (16, 99170, 97); (256, 39480, 1314) ]

let test_approx_rejects_cyclic_and_bad_k () =
  Alcotest.(check bool) "cyclic raises" true
    (match
       Approx.local_sensitivity ~k:4 triangle_cq
         (triangle_db [ [ v 1; v 2 ] ] [ [ v 2; v 3 ] ] [ [ v 3; v 1 ] ])
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "k < 1 raises" true
    (match Approx.local_sensitivity ~k:0 fig3_cq fig3_db with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Saturation reporting under Obs *)

(* [f ()]'s outcome and what Obs recorded while it ran. *)
let traced f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      let outcome = try Ok (f ()) with e -> Error e in
      (outcome, Obs.Report.capture ()))

(* A traced run's outcome and the total of one counter or gauge. *)
let traced_total name totals f =
  let outcome, report = traced f in
  ( Result.get_ok outcome,
    List.fold_left
      (fun acc t ->
        if String.equal t.Obs.Report.name name then acc + t.Obs.Report.total
        else acc)
      0 (totals report) )

let saturations f =
  traced_total "count.saturations" (fun r -> r.Obs.Report.counters) f

let path3_cq =
  Cq.make [ ("R1", [ "A"; "B" ]); ("R2", [ "B"; "C" ]); ("R3", [ "C"; "D" ]) ]

(* R2's table is factored (⊥ from R1 on B times ⊥ from R3 on C); its one
   entry, (max_count/2+1) · 2, saturates though |Q(D)| = 0. *)
let saturating_path_db =
  let rel attrs rows = Relation.create ~schema:(schema attrs) rows in
  let half = (Count.max_count / 2) + 1 in
  Database.of_list
    [
      ("R1", rel [ "A"; "B" ] [ (tup [ v 1; v 1 ], half) ]);
      ("R2", rel [ "B"; "C" ] [ (tup [ v 9; v 9 ], 1) ]);
      ("R3", rel [ "C"; "D" ] [ (tup [ v 2; v 2 ], 2) ]);
    ]

let test_factored_table_saturation () =
  let cq = path3_cq and db = saturating_path_db in
  let a, ticks = saturations (fun () -> Tsens.analyze cq db) in
  Alcotest.(check bool) "LS saturated" true
    (Count.is_saturated (Tsens.result a).Sens_types.local_sensitivity);
  Alcotest.(check int) "|Q(D)|" 0 (Tsens.output_size a);
  Alcotest.(check bool) "analyze ticks count.saturations" true (ticks >= 1);
  (* A lookup multiplies the parts again. *)
  let delta, ticks =
    saturations (fun () -> Tsens.tuple_sensitivity a "R2" (tup [ v 1; v 2 ]))
  in
  Alcotest.(check bool) "entry saturated" true (Count.is_saturated delta);
  Alcotest.(check bool) "lookup ticks count.saturations" true (ticks >= 1)

(* R1 and R3 each hold n join values and R2 one row, so R2's table is
   factored over n × n entries. An accept-all selection must read it
   through the same ranked scan as no selection: the same LS, and no
   group table larger than a part. *)
let test_selection_keeps_table_factored () =
  let n = 300 in
  let rel attrs rows = Relation.of_rows ~schema:(schema attrs) rows in
  let side attrs = rel attrs (List.init n (fun i -> [ v i; v i ])) in
  let db =
    Database.of_list
      [
        ("R1", side [ "A"; "B" ]);
        ("R2", rel [ "B"; "C" ] [ [ v 0; v 0 ] ]);
        ("R3", side [ "C"; "D" ]);
      ]
  in
  let plain = Tsens.local_sensitivity path3_cq db in
  let selected, max_group =
    traced_total "join.max_group_table_rows"
      (fun r -> r.Obs.Report.gauges)
      (fun () ->
        Tsens.local_sensitivity ~selection:(fun _ _ _ -> true) path3_cq db)
  in
  Alcotest.(check int) "LS" plain.Sens_types.local_sensitivity
    selected.Sens_types.local_sensitivity;
  Alcotest.(check bool)
    (Printf.sprintf "largest group table %d <= %d" max_group n)
    true (max_group <= n)

(* ------------------------------------------------------------------ *)
(* Naive-specific behaviour *)

let test_naive_candidate_guard () =
  (* Representative domains grow multiplicatively; the guard refuses
     before any probe runs the query. *)
  let cq = Cq.make [ ("R1", [ "A"; "B" ]); ("R2", [ "A"; "B" ]) ] in
  let rows = List.init 20 (fun i -> [ v i; v (i + 100) ]) in
  let db =
    Database.of_list
      [
        ("R1", Relation.of_rows ~schema:(schema [ "A"; "B" ]) rows);
        ("R2", Relation.of_rows ~schema:(schema [ "A"; "B" ]) rows);
      ]
  in
  let outcome, report =
    traced (fun () -> Naive.local_sensitivity ~max_candidates:10 cq db)
  in
  Alcotest.(check bool) "guard fires" true
    (match outcome with Error (Errors.Data_error _) -> true | _ -> false);
  let is_join segment = String.starts_with ~prefix:"join." segment in
  Alcotest.(check (list string)) "no join span" []
    (List.filter_map
       (fun sp ->
         let path = sp.Obs.Report.path in
         if List.exists is_join (String.split_on_char '/' path) then Some path
         else None)
       report.Obs.Report.spans)

let test_representative_domain () =
  let dom = Naive.representative_domain fig1_cq fig1_db "R1" in
  (* A ∈ {a1,a2} (active in R2 and R3), B ∈ {b1,b2} (R2 and R4),
     C lonely → single value c1: 4 candidates. *)
  Alcotest.(check int) "size" 4 (List.length dom);
  Alcotest.(check bool) "(a2,b2,c1) present" true
    (List.exists (Tuple.equal (tup [ s "a2"; s "b2"; s "c1" ])) dom)

let test_elastic_fig1 () =
  (* Elastic never undershoots TSens and reports no witness. *)
  let e = Elastic.local_sensitivity fig1_cq fig1_db in
  Alcotest.(check bool) "upper bound" true
    (e.Sens_types.local_sensitivity >= 4);
  Alcotest.(check bool) "no witness" true (e.Sens_types.witness = None)

(* ------------------------------------------------------------------ *)
(* Bags grouped onto their neighbour attributes *)

(* TSens on [plans] against the naive oracle: LS, per relation, and
   every entry of every multiplicity table. *)
let matches_oracle ~plans cq db =
  let a = Tsens.analyze ~plans cq db in
  let tsens = Tsens.result a and naive = Naive.local_sensitivity cq db in
  tsens.Sens_types.local_sensitivity = naive.Sens_types.local_sensitivity
  && tsens.Sens_types.per_relation = naive.Sens_types.per_relation
  && List.for_all
       (fun relation ->
         Relation.fold
           (fun row cnt acc ->
             acc
             && Naive.tuple_sensitivity cq db relation
                  (Tsens.witness_tuple a relation row)
                = cnt)
           (Tsens.multiplicity_table a relation)
           true)
       (Cq.relation_names cq)

(* Values from a domain of three, so a lonely attribute's rows merge
   when the bag is grouped. *)
let small_instance_of cq =
  QCheck2.Gen.(
    let atom_gen atom =
      let arity = Schema.arity atom.Cq.schema in
      list_size (int_range 0 6)
        (pair
           (map Tuple.of_list (list_repeat arity (map Value.int (int_range 0 2))))
           (int_range 1 2))
      >>= fun rows ->
      return (atom.Cq.relation, Relation.create ~schema:atom.Cq.schema rows)
    in
    flatten_l (List.map atom_gen (Cq.atoms cq)) >>= fun rels ->
    return (Database.of_list rels))

(* q2's shape: a hub with a lonely attribute L and three children, as
   the root and as an interior node below R1. *)
let star_cq =
  Cq.make ~name:"star_lonely"
    [
      ("Hub", [ "A"; "B"; "C"; "L" ]);
      ("R1", [ "A"; "X" ]);
      ("R2", [ "B" ]);
      ("R3", [ "C"; "Y" ]);
    ]

let star_plans =
  let rooted root parents = Ghd.of_join_tree (Join_tree.make star_cq ~root ~parents) in
  [
    rooted "Hub" [ ("R1", "Hub"); ("R2", "Hub"); ("R3", "Hub") ];
    rooted "R1" [ ("Hub", "R1"); ("R2", "Hub"); ("R3", "Hub") ];
  ]

let prop_star_hub_matches_naive =
  Tgen.qtest ~count:100 "star hub with lonely attribute: TSens = naive"
    QCheck2.Gen.(pair (oneofl star_plans) (small_instance_of star_cq))
    (fun (_, db) -> print_instance (star_cq, db))
    (fun (plan, db) -> matches_oracle ~plans:[ plan ] star_cq db)

(* q3_ghd's OC bag in small: bag OC = Orders ⋈ Customer over NK, CK, OK
   shares OK and NK with its parent LS and NK with its child N, so CK is
   summed away when the bag is grouped. *)
let mini_q3 =
  Cq.make ~name:"mini_q3"
    [
      ("Nation", [ "NK" ]);
      ("Customer", [ "NK"; "CK" ]);
      ("Orders", [ "CK"; "OK" ]);
      ("Lineitem", [ "OK"; "SK" ]);
      ("Supplier", [ "NK"; "SK" ]);
    ]

let mini_q3_ghd =
  Ghd.make mini_q3
    ~bags:
      [
        ("LS", [ "Lineitem"; "Supplier" ]);
        ("OC", [ "Orders"; "Customer" ]);
        ("N", [ "Nation" ]);
      ]
    ~root:"LS"
    ~parents:[ ("OC", "LS"); ("N", "OC") ]

let prop_ghd_bag_matches_naive =
  Tgen.qtest ~count:100 "GHD bag with lonely attribute: TSens = naive"
    (small_instance_of mini_q3)
    (fun db -> print_instance (mini_q3, db))
    (fun db -> matches_oracle ~plans:[ mini_q3_ghd ] mini_q3 db)

(* Join rows TSens emits on q2 at a tiny TPC-H scale. Lineitem, q2's
   root, holds fewer distinct (SK, PK) pairs than rows: read raw in
   ⊥(Lineitem) and in each child's topjoin, it emits more. *)
let test_q2_join_rows_pinned () =
  let open Tsens_workload in
  let db = Tpch.generate ~seed:42 ~scale:0.0005 () in
  let _, rows =
    traced_total "join.rows_emitted"
      (fun r -> r.Obs.Report.counters)
      (fun () -> Tsens.analyze ~plans:Queries.tpch_plans Queries.q2 db)
  in
  Alcotest.(check int) "join.rows_emitted" 3709 rows

let () =
  Alcotest.run "sensitivity"
    [
      ( "figure1",
        [
          Alcotest.test_case "tsens result" `Quick test_fig1_tsens;
          Alcotest.test_case "tuple sensitivities" `Quick
            test_fig1_tuple_sensitivities;
          Alcotest.test_case "matches naive" `Quick test_fig1_matches_naive;
          Alcotest.test_case "paper join tree plan" `Quick
            test_fig1_paper_join_tree_plan;
        ] );
      ( "figure3",
        [
          Alcotest.test_case "T2 table" `Quick test_fig3_multiplicity_table;
          Alcotest.test_case "results" `Quick test_fig3_results;
          Alcotest.test_case "example 4.1" `Quick test_example_4_1;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "selection" `Quick test_selection;
          Alcotest.test_case "skip" `Quick test_skip;
          Alcotest.test_case "disconnected" `Quick test_disconnected;
          Alcotest.test_case "single atom" `Quick test_single_atom;
          Alcotest.test_case "triangle ghd" `Quick test_triangle_ghd;
        ] );
      ( "properties",
        [
          prop_tsens_matches_naive;
          prop_witness_attains_ls;
          prop_path_tables_within_theorem_4_1;
          prop_elastic_upper_bounds_tsens;
          prop_yannakakis_count_exact;
          prop_output_size_byproduct;
          prop_selection_never_increases;
          prop_selection_matches_naive;
          prop_tables_entrywise_correct;
        ] );
      ( "random_trees",
        [
          prop_random_trees_acyclic;
          prop_random_trees_match_naive;
          prop_random_trees_parser_round_trip;
        ] );
      ( "enumeration",
        [
          Alcotest.test_case "top sensitive fig3" `Quick
            test_top_sensitive_fig3;
          prop_top_sensitive_matches_table;
          prop_witness_is_top_row;
          prop_selected_witness_is_top_row;
          Alcotest.test_case "top sensitive part order" `Quick
            test_top_sensitive_part_order;
          Alcotest.test_case "statistics fig3" `Quick test_statistics_fig3;
          Alcotest.test_case "lonely attribute filler" `Quick
            test_lonely_attribute_filler;
          Alcotest.test_case "factored table saturation" `Quick
            test_factored_table_saturation;
          Alcotest.test_case "selection keeps table factored" `Quick
            test_selection_keeps_table_factored;
        ] );
      ( "blocks",
        [
          prop_blocks_match_dense;
          Alcotest.test_case "q3 Orders within Theorem 4.1 space" `Quick
            test_q3_orders_blocks_space;
          Alcotest.test_case "q3 TSens = naive with blocks" `Quick
            test_q3_blocks_match_naive;
        ] );
      ( "grouped bags",
        [
          prop_star_hub_matches_naive;
          prop_ghd_bag_matches_naive;
          Alcotest.test_case "q2 join rows pinned" `Quick
            test_q2_join_rows_pinned;
        ] );
      ( "approx",
        [
          prop_approx_upper_bounds_tsens;
          prop_approx_exact_with_large_k;
          Alcotest.test_case "compresses" `Quick test_approx_compresses;
          Alcotest.test_case "pinned ablation" `Quick
            test_approx_pinned_ablation;
          Alcotest.test_case "rejects cyclic and bad k" `Quick
            test_approx_rejects_cyclic_and_bad_k;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "naive candidate guard" `Quick
            test_naive_candidate_guard;
          Alcotest.test_case "representative domain" `Quick
            test_representative_domain;
          Alcotest.test_case "elastic fig1" `Quick test_elastic_fig1;
        ] );
    ]
