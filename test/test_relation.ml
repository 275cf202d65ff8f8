(* Unit and property tests for the relational layer. *)

open Tsens_relational

let v = Value.int
let s = Value.str
let tup l = Tuple.of_list l
let schema l = Schema.of_list l

(* ------------------------------------------------------------------ *)
(* Count *)

let test_count_saturating_add () =
  Alcotest.(check int) "normal" 5 (Count.add 2 3);
  Alcotest.(check bool) "saturates" true
    (Count.is_saturated (Count.add Count.max_count 1));
  Alcotest.(check bool) "near-saturation" true
    (Count.is_saturated (Count.add (Count.max_count - 1) 2))

let test_count_saturating_mul () =
  Alcotest.(check int) "normal" 6 (Count.mul 2 3);
  Alcotest.(check int) "zero absorbs" 0 (Count.mul 0 Count.max_count);
  Alcotest.(check bool) "saturates" true
    (Count.is_saturated (Count.mul (Count.max_count / 2) 3));
  Alcotest.(check bool) "saturated times one stays" true
    (Count.is_saturated (Count.mul Count.max_count 1))

let test_count_pow () =
  Alcotest.(check int) "2^10" 1024 (Count.pow 2 10);
  Alcotest.(check int) "x^0" 1 (Count.pow 7 0);
  Alcotest.(check bool) "big pow saturates" true
    (Count.is_saturated (Count.pow 10 40));
  Alcotest.check_raises "negative exponent"
    (Invalid_argument "Count.pow: negative exponent") (fun () ->
      ignore (Count.pow 2 (-1)))

let test_count_of_int () =
  Alcotest.check_raises "negatives raise"
    (Invalid_argument "Count.of_int: negative multiplicity -5") (fun () ->
      ignore (Count.of_int (-5)));
  Alcotest.(check int) "keeps zero" 0 (Count.of_int 0);
  Alcotest.(check int) "keeps positives" 5 (Count.of_int 5)

(* Exact behaviour one step either side of the saturation point: results
   strictly below max_count stay exact, anything that reaches it sticks
   there. *)
let test_count_boundary () =
  let m = Count.max_count in
  Alcotest.(check int) "add below boundary exact" (m - 1)
    (Count.add (m - 2) 1);
  Alcotest.(check bool) "add reaching boundary saturates" true
    (Count.is_saturated (Count.add (m - 1) 1));
  Alcotest.(check bool) "saturated add absorbs" true
    (Count.is_saturated (Count.add m m));
  Alcotest.(check int) "mul below boundary exact" (m - 1)
    (Count.mul ((m - 1) / 2) 2);
  Alcotest.(check bool) "mul crossing boundary saturates" true
    (Count.is_saturated (Count.mul ((m / 2) + 1) 2));
  Alcotest.(check bool) "saturated mul absorbs" true
    (Count.is_saturated (Count.mul m 2));
  (* max_count = 2^62 - 1 on 64-bit: 2^61 is exact, 2^62 saturates. *)
  Alcotest.(check int) "pow below boundary exact" (1 lsl 61)
    (Count.pow 2 61);
  Alcotest.(check bool) "pow crossing boundary saturates" true
    (Count.is_saturated (Count.pow 2 62));
  Alcotest.(check int) "pow of saturated zero exponent" Count.one
    (Count.pow m 0)

(* ------------------------------------------------------------------ *)
(* Value *)

let test_value_order () =
  Alcotest.(check bool) "int < str" true (Value.compare (v 99) (s "a") < 0);
  Alcotest.(check bool) "str < bool" true
    (Value.compare (s "z") (Value.bool false) < 0);
  Alcotest.(check bool) "ints ordered" true (Value.compare (v 1) (v 2) < 0);
  Alcotest.(check bool) "equal ints" true (Value.equal (v 3) (v 3))

let test_value_round_trip () =
  let check x =
    Alcotest.check Tgen.value_testable "round trip" x
      (Value.of_string (Value.to_string x))
  in
  check (v 42);
  check (v (-7));
  check (s "hello_world");
  check (Value.bool true);
  check (Value.bool false)

let test_value_accessors () =
  Alcotest.(check (option int)) "as_int" (Some 5) (Value.as_int (v 5));
  Alcotest.(check (option int)) "as_int on str" None (Value.as_int (s "x"));
  Alcotest.(check (option string)) "as_str" (Some "x") (Value.as_str (s "x"));
  Alcotest.(check (option bool))
    "as_bool" (Some true)
    (Value.as_bool (Value.bool true))

(* Hash quality: the tuple-keyed tables of every kernel lean on these. *)

(* Sequential keys must spread evenly over any bucket count: the *31
   accumulator this replaced put consecutive single-attribute tuples in
   consecutive buckets only when the count divided 31 cleanly, and
   composite keys skewed badly. Allow max 2x the ideal bucket load. *)
let bucket_skew_ok tuples parts =
  let counts = Array.make parts 0 in
  List.iter
    (fun t ->
      let b = Tuple.hash t land max_int mod parts in
      counts.(b) <- counts.(b) + 1)
    tuples;
  let n = List.length tuples in
  let mean = float_of_int n /. float_of_int parts in
  Array.for_all (fun c -> float_of_int c <= (2.0 *. mean) +. 1.0) counts

let test_tuple_bucket_skew () =
  let n = 4096 in
  let singles = List.init n (fun i -> tup [ v i ]) in
  let pairs_seq = List.init n (fun i -> tup [ v i; v (i + 1) ]) in
  let pairs_const = List.init n (fun i -> tup [ v 7; v i ]) in
  List.iter
    (fun parts ->
      Alcotest.(check bool)
        (Printf.sprintf "singles spread over %d parts" parts)
        true
        (bucket_skew_ok singles parts);
      Alcotest.(check bool)
        (Printf.sprintf "sequential pairs spread over %d parts" parts)
        true
        (bucket_skew_ok pairs_seq parts);
      Alcotest.(check bool)
        (Printf.sprintf "constant-prefix pairs spread over %d parts" parts)
        true
        (bucket_skew_ok pairs_const parts))
    [ 2; 3; 4; 7; 8; 16 ]

let test_value_hash_constructors () =
  Alcotest.(check bool)
    "equal values hash equal" true
    (Value.hash (v 42) = Value.hash (v 42));
  (* Not guaranteed for arbitrary hashes, but deterministic here: the
     constructor tags must keep these common collision shapes apart. *)
  Alcotest.(check bool)
    "Int 1 vs Str \"1\"" true
    (Value.hash (v 1) <> Value.hash (s "1"));
  Alcotest.(check bool)
    "Int 0 vs Bool false" true
    (Value.hash (v 0) <> Value.hash (Value.bool false))

(* ------------------------------------------------------------------ *)
(* Schema *)

let test_schema_duplicate () =
  Alcotest.check_raises "duplicate attr"
    (Errors.Schema_error "duplicate attribute A in schema") (fun () ->
      ignore (schema [ "A"; "B"; "A" ]))

let test_schema_set_ops () =
  let ab = schema [ "A"; "B" ] and bc = schema [ "B"; "C" ] in
  Alcotest.check Tgen.schema_testable "inter" (schema [ "B" ])
    (Schema.inter ab bc);
  Alcotest.check Tgen.schema_testable "union"
    (schema [ "A"; "B"; "C" ])
    (Schema.union ab bc);
  Alcotest.check Tgen.schema_testable "diff" (schema [ "A" ])
    (Schema.diff ab bc);
  Alcotest.(check bool) "subset yes" true (Schema.subset (schema [ "B" ]) ab);
  Alcotest.(check bool) "subset no" false (Schema.subset bc ab);
  Alcotest.(check bool) "disjoint" true
    (Schema.disjoint (schema [ "A" ]) (schema [ "C" ]))

let test_schema_positions () =
  let super = schema [ "A"; "B"; "C"; "D" ] in
  let positions = Schema.positions ~sub:(schema [ "C"; "A" ]) super in
  Alcotest.(check (array int)) "positions" [| 2; 0 |] positions;
  Alcotest.check_raises "missing attr"
    (Errors.Schema_error "attribute X not in schema") (fun () ->
      ignore (Schema.positions ~sub:(schema [ "X" ]) super))

let test_schema_rename () =
  let r = Schema.rename [ ("A", "X") ] (schema [ "A"; "B" ]) in
  Alcotest.check Tgen.schema_testable "renamed" (schema [ "X"; "B" ]) r;
  Alcotest.check_raises "rename collision"
    (Errors.Schema_error "duplicate attribute B in schema") (fun () ->
      ignore (Schema.rename [ ("A", "B") ] (schema [ "A"; "B" ])))

let test_schema_equal_as_sets () =
  Alcotest.(check bool) "permuted equal" true
    (Schema.equal_as_sets (schema [ "A"; "B" ]) (schema [ "B"; "A" ]));
  Alcotest.(check bool) "ordered unequal" false
    (Schema.equal (schema [ "A"; "B" ]) (schema [ "B"; "A" ]))

(* ------------------------------------------------------------------ *)
(* Tuple *)

let test_tuple_compare () =
  Alcotest.(check bool) "lexicographic" true
    (Tuple.compare (tup [ v 1; v 2 ]) (tup [ v 1; v 3 ]) < 0);
  Alcotest.(check bool) "shorter first" true
    (Tuple.compare (tup [ v 1 ]) (tup [ v 1; v 0 ]) < 0);
  Alcotest.(check bool) "equal" true
    (Tuple.equal (tup [ v 1; s "a" ]) (tup [ v 1; s "a" ]))

let test_tuple_project () =
  let t = tup [ v 10; v 20; v 30 ] in
  Alcotest.check Tgen.tuple_testable "projection"
    (tup [ v 30; v 10 ])
    (Tuple.project [| 2; 0 |] t)

(* ------------------------------------------------------------------ *)
(* Relation *)

let r1_fig1 =
  (* R1(A,B,C) from the paper's Figure 1. *)
  Relation.of_rows ~schema:(schema [ "A"; "B"; "C" ])
    [
      [ s "a1"; s "b1"; s "c1" ];
      [ s "a1"; s "b2"; s "c1" ];
      [ s "a2"; s "b1"; s "c1" ];
    ]

let test_relation_normalizes () =
  let r =
    Relation.create ~schema:(schema [ "A" ])
      [ (tup [ v 1 ], 2); (tup [ v 1 ], 3); (tup [ v 2 ], 1) ]
  in
  Alcotest.(check int) "distinct" 2 (Relation.distinct_count r);
  Alcotest.(check int) "cardinality" 6 (Relation.cardinality r);
  Alcotest.(check int) "merged count" 5 (Relation.count_of (tup [ v 1 ]) r)

let test_relation_create_validation () =
  Alcotest.check_raises "arity mismatch"
    (Errors.Data_error "row arity 1 does not match schema (A, B)") (fun () ->
      ignore
        (Relation.create ~schema:(schema [ "A"; "B" ]) [ (tup [ v 1 ], 1) ]));
  Alcotest.check_raises "zero count"
    (Errors.Data_error "non-positive multiplicity 0 for tuple (1)") (fun () ->
      ignore (Relation.create ~schema:(schema [ "A" ]) [ (tup [ v 1 ], 0) ]))

let test_relation_project_sums () =
  let grouped = Relation.project (schema [ "A" ]) r1_fig1 in
  Alcotest.(check int) "a1 multiplicity" 2
    (Relation.count_of (tup [ s "a1" ]) grouped);
  Alcotest.(check int) "a2 multiplicity" 1
    (Relation.count_of (tup [ s "a2" ]) grouped);
  (* Projecting on the empty schema yields a single nullary tuple carrying
     the bag cardinality. *)
  let total = Relation.project Schema.empty r1_fig1 in
  Alcotest.(check int) "nullary count" 3 (Relation.count_of (tup []) total)

let test_relation_filter () =
  let keep schema t =
    Value.equal (Tuple.get t (Schema.index "B" schema)) (s "b1")
  in
  let r = Relation.filter keep r1_fig1 in
  Alcotest.(check int) "two b1 rows" 2 (Relation.distinct_count r)

let test_relation_add_remove () =
  let t = tup [ s "a9"; s "b9"; s "c9" ] in
  let bigger = Relation.add t r1_fig1 in
  Alcotest.(check int) "added" 1 (Relation.count_of t bigger);
  let same = Relation.remove t bigger in
  Alcotest.(check bool) "add then remove restores" true
    (Relation.equal same r1_fig1);
  Alcotest.(check bool) "removing absent is identity" true
    (Relation.equal (Relation.remove t r1_fig1) r1_fig1);
  let existing = tup [ s "a1"; s "b1"; s "c1" ] in
  let smaller = Relation.remove existing r1_fig1 in
  Alcotest.(check int) "removed one copy" 0 (Relation.count_of existing smaller)

(* Pins the clamp semantics documented in relation.mli: removing more
   copies than are stored empties the row and leaves the rest of the
   relation untouched; only a non-positive count raises. *)
let test_relation_remove_clamp () =
  let sch = schema [ "A" ] in
  let x = tup [ s "x" ] and y = tup [ s "y" ] in
  let r = Relation.create ~schema:sch [ (x, 3); (y, 2) ] in
  let clamped = Relation.remove ~count:5 x r in
  Alcotest.(check int) "over-removal empties the row" 0
    (Relation.count_of x clamped);
  Alcotest.(check int) "other rows untouched" 2 (Relation.count_of y clamped);
  Alcotest.(check bool) "over-removal equals exact removal" true
    (Relation.equal clamped (Relation.remove ~count:3 x r));
  Alcotest.(check int) "partial removal subtracts" 1
    (Relation.count_of x (Relation.remove ~count:2 x r));
  (match Relation.remove ~count:0 x r with
  | exception Errors.Data_error _ -> ()
  | _ -> Alcotest.fail "count 0 should raise Data_error");
  match Relation.remove ~count:(-2) x r with
  | exception Errors.Data_error _ -> ()
  | _ -> Alcotest.fail "negative count should raise Data_error"

let test_relation_max_row () =
  let r =
    Relation.create ~schema:(schema [ "A" ])
      [ (tup [ v 2 ], 5); (tup [ v 1 ], 5); (tup [ v 3 ], 1) ]
  in
  (match Relation.max_row r with
  | Some (t, c) ->
      Alcotest.check Tgen.tuple_testable "tie broken by tuple order"
        (tup [ v 1 ]) t;
      Alcotest.(check int) "count" 5 c
  | None -> Alcotest.fail "expected a max row");
  Alcotest.(check bool) "empty has none" true
    (Relation.max_row (Relation.empty (schema [ "A" ])) = None)

let test_relation_max_frequency () =
  Alcotest.(check int) "mf over A" 2
    (Relation.max_frequency ~over:(schema [ "A" ]) r1_fig1);
  Alcotest.(check int) "mf over empty = cardinality" 3
    (Relation.max_frequency ~over:Schema.empty r1_fig1);
  Alcotest.(check int) "mf of empty relation" 0
    (Relation.max_frequency ~over:(schema [ "A" ])
       (Relation.empty (schema [ "A" ])))

let test_relation_active_domain () =
  Alcotest.(check (list string))
    "domain of A" [ "a1"; "a2" ]
    (List.filter_map Value.as_str (Relation.active_domain "A" r1_fig1))

let test_relation_reorder () =
  let r = Relation.of_rows ~schema:(schema [ "A"; "B" ]) [ [ v 1; v 2 ] ] in
  let r' = Relation.reorder (schema [ "B"; "A" ]) r in
  Alcotest.(check int) "value moved" 1 (Relation.count_of (tup [ v 2; v 1 ]) r');
  Alcotest.(check bool) "semantic equality" true (Relation.equal_semantic r r')

(* Onto the stored schema, reorder and project return the relation
   itself: Cq.instance reorders every atom and relies on this to skip a
   copy when the columns already match. *)
let test_relation_identity_reorder_project () =
  let r =
    Relation.create ~schema:(schema [ "A"; "B" ])
      [ (tup [ s "a"; s "b" ], 1); (tup [ s "a"; s "c" ], 2) ]
  in
  Alcotest.(check bool) "identity reorder returns the relation" true
    (Relation.reorder (schema [ "A"; "B" ]) r == r);
  Alcotest.(check bool) "identity project returns the relation" true
    (Relation.project (schema [ "A"; "B" ]) r == r);
  let permuted = Relation.reorder (schema [ "B"; "A" ]) r in
  let swapped = Relation.project (schema [ "B"; "A" ]) r in
  Alcotest.(check bool) "a permutation builds a new value" false
    (permuted == r || swapped == r);
  Alcotest.(check bool) "permuting project = reorder" true
    (Relation.equal swapped permuted)

let test_relation_scale () =
  let r = Relation.of_rows ~schema:(schema [ "A" ]) [ [ v 1 ] ] in
  Alcotest.(check int) "scaled" 7 (Relation.cardinality (Relation.scale 7 r));
  Alcotest.check_raises "bad factor"
    (Errors.Data_error "scale: non-positive factor 0") (fun () ->
      ignore (Relation.scale 0 r))

let prop_project_preserves_cardinality =
  Tgen.qtest "project preserves bag cardinality" Tgen.relation_gen
    Tgen.print_relation (fun r ->
      let keep =
        Schema.restrict
          ~keep:(fun a -> Attr.equal a "A" || Attr.equal a "B")
          (Relation.schema r)
      in
      Relation.cardinality (Relation.project keep r) = Relation.cardinality r)

let prop_mem_matches_count =
  Tgen.qtest "mem agrees with count_of" Tgen.relation_gen Tgen.print_relation
    (fun r ->
      Relation.fold
        (fun t _ acc -> acc && Relation.mem t r && Relation.count_of t r > 0)
        r true)

let prop_add_remove_round_trip =
  Tgen.qtest "add then remove is identity" Tgen.relation_gen
    Tgen.print_relation (fun r ->
      let t =
        Tuple.of_list
          (List.map (fun _ -> v 99) (Schema.attrs (Relation.schema r)))
      in
      Relation.equal r (Relation.remove t (Relation.add t r)))

(* ------------------------------------------------------------------ *)
(* Join *)

let test_join_figure1 () =
  (* The full example of the paper's Figure 1: the natural join of the
     four relations is the single tuple (a1,b1,c1,d1,e1,f1). *)
  let r2 =
    Relation.of_rows ~schema:(schema [ "A"; "B"; "D" ])
      [ [ s "a1"; s "b1"; s "d1" ]; [ s "a2"; s "b2"; s "d2" ] ]
  in
  let r3 =
    Relation.of_rows ~schema:(schema [ "A"; "E" ])
      [ [ s "a1"; s "e1" ]; [ s "a2"; s "e1" ]; [ s "a2"; s "e2" ] ]
  in
  let r4 =
    Relation.of_rows ~schema:(schema [ "B"; "F" ])
      [ [ s "b1"; s "f1" ]; [ s "b2"; s "f1" ]; [ s "b2"; s "f2" ] ]
  in
  let out = Join.join_all [ r1_fig1; r2; r3; r4 ] in
  Alcotest.(check int) "single output tuple" 1 (Relation.cardinality out);
  let reordered =
    Relation.reorder (schema [ "A"; "B"; "C"; "D"; "E"; "F" ]) out
  in
  let expected =
    Tuple.of_list [ s "a1"; s "b1"; s "c1"; s "d1"; s "e1"; s "f1" ]
  in
  Alcotest.(check int) "expected tuple present" 1
    (Relation.count_of expected reordered)

let test_join_counts_multiply () =
  let a =
    Relation.create ~schema:(schema [ "A"; "B" ]) [ (tup [ v 1; v 2 ], 3) ]
  in
  let b =
    Relation.create ~schema:(schema [ "B"; "C" ]) [ (tup [ v 2; v 5 ], 4) ]
  in
  let out = Join.natural_join a b in
  Alcotest.(check int) "3*4" 12 (Relation.count_of (tup [ v 1; v 2; v 5 ]) out)

let test_join_cross_product () =
  let a = Relation.of_rows ~schema:(schema [ "A" ]) [ [ v 1 ]; [ v 2 ] ] in
  let b = Relation.of_rows ~schema:(schema [ "B" ]) [ [ v 3 ]; [ v 4 ] ] in
  Alcotest.(check int) "2x2 cross" 4
    (Relation.cardinality (Join.natural_join a b))

let test_semijoin () =
  let a =
    Relation.of_rows ~schema:(schema [ "A"; "B" ])
      [ [ v 1; v 1 ]; [ v 2; v 2 ] ]
  in
  let b = Relation.of_rows ~schema:(schema [ "B" ]) [ [ v 1 ] ] in
  let out = Join.semijoin a b in
  Alcotest.(check int) "only matching row" 1 (Relation.distinct_count out);
  Alcotest.(check int) "row preserved" 1
    (Relation.count_of (tup [ v 1; v 1 ]) out)

let prop_join_project_consistent =
  Tgen.qtest "join_project = project o natural_join" Tgen.joinable_pair_gen
    Tgen.print_relation_pair (fun (a, b) ->
      let group = Schema.inter (Relation.schema a) (Relation.schema b) in
      let fused = Join.join_project ~group a b in
      let naive = Relation.project group (Join.natural_join a b) in
      Relation.equal fused naive)

let prop_count_join_consistent =
  Tgen.qtest "count_join = |natural_join|" Tgen.joinable_pair_gen
    Tgen.print_relation_pair (fun (a, b) ->
      Join.count_join a b = Relation.cardinality (Join.natural_join a b))

let prop_join_commutes_on_counts =
  Tgen.qtest "join cardinality commutes" Tgen.joinable_pair_gen
    Tgen.print_relation_pair (fun (a, b) ->
      Relation.cardinality (Join.natural_join a b)
      = Relation.cardinality (Join.natural_join b a))

let prop_join_project_all_consistent =
  Tgen.qtest "join_project_all = project o join_all"
    QCheck2.Gen.(
      pair Tgen.joinable_pair_gen Tgen.relation_gen >>= fun ((a, b), c) ->
      return [ a; b; c ])
    (fun rels -> String.concat "\n---\n" (List.map Tgen.print_relation rels))
    (fun rels ->
      let group =
        Schema.inter
          (Relation.schema (List.nth rels 0))
          (Relation.schema (List.nth rels 1))
      in
      let fused = Join.join_project_all ~group rels in
      let naive = Relation.project group (Join.join_all rels) in
      Relation.equal fused naive)

let prop_merge_join_equals_hash_join =
  Tgen.qtest "merge join = hash join" Tgen.joinable_pair_gen
    Tgen.print_relation_pair (fun (a, b) ->
      Relation.equal (Join.merge_join a b) (Join.natural_join a b))

let prop_merge_join_cross_product =
  Tgen.qtest "merge join handles cross products" Tgen.relation_gen
    Tgen.print_relation (fun r ->
      (* Join against a disjoint-schema relation: both implementations
         degrade to the counted cross product. *)
      let other =
        Relation.create
          ~schema:(Schema.of_list [ "Z1"; "Z2" ])
          [
            (Tuple.of_list [ v 1; v 2 ], 2);
            (Tuple.of_list [ v 3; v 4 ], 1);
          ]
      in
      Relation.equal (Join.merge_join r other) (Join.natural_join r other))

let prop_semijoin_no_growth =
  Tgen.qtest "semijoin never grows" Tgen.joinable_pair_gen
    Tgen.print_relation_pair (fun (a, b) ->
      Relation.cardinality (Join.semijoin a b) <= Relation.cardinality a)

(* ------------------------------------------------------------------ *)
(* Fast kernels against a nested-loop reference. The reference reads
   rows with [Relation.rows] and builds results with [Relation.create]
   only: no Join or Index code, one value lookup by attribute name at a
   time. *)

let ref_value rel tuple attr =
  Tuple.get tuple (Schema.index attr (Relation.schema rel))

let ref_project target r =
  Relation.create ~schema:target
    (Array.to_list (Relation.rows r)
    |> List.map (fun (t, c) ->
           (Tuple.of_list (List.map (ref_value r t) (Schema.attrs target)), c)))

let ref_join_project ~group a b =
  let sa = Relation.schema a and sb = Relation.schema b in
  let common = Schema.attrs (Schema.inter sa sb) in
  let out = ref [] in
  Array.iter
    (fun (ta, ca) ->
      Array.iter
        (fun (tb, cb) ->
          if
            List.for_all
              (fun x -> Value.equal (ref_value a ta x) (ref_value b tb x))
              common
          then
            let value x =
              if Schema.mem x sa then ref_value a ta x else ref_value b tb x
            in
            out :=
              ( Tuple.of_list (List.map value (Schema.attrs group)),
                Count.mul ca cb )
              :: !out)
        (Relation.rows b))
    (Relation.rows a);
  Relation.create ~schema:group !out

let ref_join_project_all ~group = function
  | [] -> invalid_arg "ref_join_project_all"
  | first :: rest ->
      List.fold_left
        (fun acc r ->
          ref_join_project
            ~group:(Schema.union (Relation.schema acc) (Relation.schema r))
            acc r)
        first rest
      |> ref_project group

let ref_natural_join a b =
  ref_join_project
    ~group:(Schema.union (Relation.schema a) (Relation.schema b))
    a b

(* The rows of [a] whose common attributes match some row of [b]. *)
let ref_semijoin a b =
  let common =
    Schema.attrs (Schema.inter (Relation.schema a) (Relation.schema b))
  in
  Relation.create ~schema:(Relation.schema a)
    (Array.to_list (Relation.rows a)
    |> List.filter (fun (ta, _) ->
           Array.exists
             (fun (tb, _) ->
               List.for_all
                 (fun x -> Value.equal (ref_value a ta x) (ref_value b tb x))
                 common)
             (Relation.rows b)))

(* The rows of [r] whose [key] attributes read [k], sorted. *)
let ref_lookup key r k =
  Array.to_list (Relation.rows r)
  |> List.filter (fun (t, _) ->
         List.for_all2
           (fun x kx -> Value.equal (ref_value r t x) kx)
           (Schema.attrs key) (Array.to_list k))
  |> List.sort compare

let ref_group_count key r k =
  List.fold_left (fun acc (_, c) -> Count.add acc c) Count.zero
    (ref_lookup key r k)

let ref_key key r t =
  Tuple.of_list (List.map (ref_value r t) (Schema.attrs key))

(* Every check runs on the pair as drawn and with each side emptied. *)
let on_emptied_sides check (a, b) =
  let empty r = Relation.empty (Relation.schema r) in
  List.for_all check [ (a, b); (empty a, b); (a, empty b) ]

let fast_equals_reference ((a, b), extra) =
  on_emptied_sides
    (fun (a, b) ->
      List.for_all
        (fun group ->
          Relation.equal (Join.join_project ~group a b)
            (ref_join_project ~group a b)
          && List.for_all
               (fun rels ->
                 Relation.equal
                   (Join.join_project_all ~group rels)
                   (ref_join_project_all ~group rels))
               [ [ a; b ]; [ a; b; a ] ])
        (extra :: Tgen.group_variants a b)
      && List.for_all
           (fun target ->
             Relation.equal (Relation.project target a) (ref_project target a))
           (Tgen.target_variants a))
    (a, b)

(* One check per operator. The full-schema groups are the joined schema
   in the order of either side first, and reversed. *)
let natural_join_equals_reference ((a, b), _) =
  on_emptied_sides
    (fun (a, b) ->
      let reference = ref_natural_join a b in
      Relation.equal (Join.natural_join a b) reference
      && Relation.equal (Join.merge_join a b) reference)
    (a, b)

let count_join_equals_reference ((a, b), _) =
  on_emptied_sides
    (fun (a, b) ->
      Count.equal (Join.count_join a b)
        (Relation.cardinality (ref_natural_join a b)))
    (a, b)

let semijoin_equals_reference ((a, b), _) =
  on_emptied_sides
    (fun (a, b) -> Relation.equal (Join.semijoin a b) (ref_semijoin a b))
    (a, b)

let join_project_on groups ((a, b), extra) =
  on_emptied_sides
    (fun (a, b) ->
      List.for_all
        (fun group ->
          Relation.equal (Join.join_project ~group a b)
            (ref_join_project ~group a b))
        (groups (Relation.schema a) (Relation.schema b) extra))
    (a, b)

let rev s = Schema.of_list (List.rev (Schema.attrs s))

let join_project_equals_reference =
  join_project_on (fun sa sb extra ->
      [ extra; sa; rev sb; Schema.inter sa sb; Schema.empty ])

let full_schema_join_project_equals_reference =
  join_project_on (fun sa sb _ ->
      [ Schema.union sa sb; Schema.union sb sa; rev (Schema.union sa sb) ])

let project_equals_reference ((a, b), extra) =
  List.for_all
    (fun r ->
      List.for_all
        (fun target ->
          Relation.equal (Relation.project target r) (ref_project target r))
        (Schema.inter extra (Relation.schema r) :: Tgen.target_variants r))
    [ a; b ]

(* Index [b] on keys read from one side, both sides, a random subset and
   no attribute at all; probe with every key of both relations and one
   key no row holds. *)
let index_equals_reference ((a, b), extra) =
  on_emptied_sides
    (fun (a, b) ->
      let sb = Relation.schema b in
      let keys =
        [
          Schema.inter (Relation.schema a) sb;
          sb;
          rev sb;
          Schema.inter extra sb;
          Schema.empty;
        ]
      in
      List.for_all
        (fun key ->
          let idx = Index.build ~key b in
          let keys_of r =
            if Schema.subset key (Relation.schema r) then
              Array.to_list (Relation.rows r)
              |> List.map (fun (t, _) -> ref_key key r t)
            else []
          in
          let missing =
            Tuple.of_list (List.map (fun _ -> v 99) (Schema.attrs key))
          in
          List.for_all
            (fun k ->
              List.sort compare (Array.to_list (Index.lookup idx k))
              = ref_lookup key b k
              && Count.equal (Index.group_count idx k) (ref_group_count key b k))
            ((missing :: keys_of a) @ keys_of b)
          && Count.equal (Index.max_group_count idx)
               (List.fold_left
                  (fun acc k -> Count.max acc (ref_group_count key b k))
                  Count.zero (keys_of b)))
        keys)
    (a, b)

(* Ordinary and saturating pairs, with a random subset of the joined
   schema in random order. *)
let reference_qtest
    ?(pairs = [ Tgen.joinable_pair_gen; Tgen.saturating_pair_gen ]) name check =
  Tgen.qtest ~count:300 name
    QCheck2.Gen.(
      oneof pairs
      >>= fun (a, b) ->
      Tgen.sub_schema_gen
        (Schema.union (Relation.schema a) (Relation.schema b))
      >>= fun extra -> return ((a, b), extra))
    (fun (pair, extra) ->
      Format.asprintf "%s@.extra schema %a" (Tgen.print_relation_pair pair)
        Schema.pp extra)
    check

let prop_fast_equals_reference =
  reference_qtest "join_project, join_project_all, project = reference"
    fast_equals_reference

(* The per-operator checks also draw pairs that may share no attribute,
   where every join is a cross product. *)
let operator_qtest name check =
  reference_qtest name check
    ~pairs:
      [
        Tgen.joinable_pair_gen;
        Tgen.saturating_pair_gen;
        QCheck2.Gen.pair Tgen.relation_gen Tgen.relation_gen;
      ]

let prop_natural_join_equals_reference =
  operator_qtest "natural_join = nested-loop reference"
    natural_join_equals_reference

let prop_count_join_equals_reference =
  operator_qtest "count_join = nested-loop reference"
    count_join_equals_reference

let prop_semijoin_equals_reference =
  operator_qtest "semijoin = nested-loop reference" semijoin_equals_reference

let prop_join_project_equals_reference =
  operator_qtest "join_project = nested-loop reference"
    join_project_equals_reference

let prop_full_schema_join_project_equals_reference =
  operator_qtest "full-schema join_project = reference"
    full_schema_join_project_equals_reference

let prop_project_equals_reference =
  operator_qtest "project = nested-loop reference" project_equals_reference

let prop_index_equals_reference =
  reference_qtest "probes = nested-loop reference"
    index_equals_reference

(* Saturation inside a kernel is reported: a group sum that crosses
   max_count from finite products or counts — in a join, a projection,
   a relation's construction or a point insert — a product that
   saturates on emission, a scaled relation, a truncation profile, a
   count_join product, a bag cardinality and a product of component
   sizes (Yannakakis, TSens and the top-k approximation) all tick
   count.saturations. *)
let test_kernel_saturation_ticks () =
  let saturations f =
    Obs.reset ();
    Obs.enable ();
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Obs.reset ())
      (fun () ->
        let result = f () in
        let report = Obs.Report.capture () in
        let ticks =
          List.fold_left
            (fun acc t ->
              if String.equal t.Obs.Report.name "count.saturations" then
                acc + t.Obs.Report.total
              else acc)
            0 report.Obs.Report.counters
        in
        (result, ticks))
  in
  let half = (Count.max_count / 2) + 1 in
  let a =
    Relation.create ~schema:(schema [ "A"; "B" ])
      [ (tup [ v 1; v 1 ], half); (tup [ v 1; v 2 ], half) ]
  in
  let b counts =
    Relation.create ~schema:(schema [ "B"; "C" ])
      (List.map2 (fun t c -> (t, c)) [ tup [ v 1; v 0 ]; tup [ v 2; v 0 ] ] counts)
  in
  (* Every product stays finite; the two of group A=1 sum past max_count. *)
  let finite = b [ 1; 1 ] in
  (* The second product saturates as it is emitted. *)
  let saturating = b [ 1; Count.max_count ] in
  let check name f reference =
    let result, ticks = saturations f in
    Alcotest.(check Tgen.relation_testable) (name ^ " = reference") reference
      result;
    Alcotest.(check bool) (name ^ " saturates") true
      (Array.exists (fun (_, c) -> Count.is_saturated c) (Relation.rows result));
    Alcotest.(check bool) (name ^ " ticks count.saturations") true (ticks > 0)
  in
  let group = schema [ "A" ] in
  check "group sum"
    (fun () -> Join.join_project ~group a finite)
    (ref_join_project ~group a finite);
  check "emission"
    (fun () -> Join.join_project ~group:(schema [ "C"; "B" ]) a saturating)
    (ref_join_project ~group:(schema [ "C"; "B" ]) a saturating);
  check "join_project_all"
    (fun () -> Join.join_project_all ~group [ a; finite; a ])
    (ref_join_project_all ~group [ a; finite; a ]);
  check "project" (fun () -> Relation.project group a) (ref_project group a);
  let saturated =
    Relation.create ~schema:(schema [ "A" ]) [ (tup [ v 1 ], Count.max_count) ]
  in
  check "create"
    (fun () ->
      Relation.create ~schema:(schema [ "A" ])
        [ (tup [ v 1 ], half); (tup [ v 1 ], half) ])
    saturated;
  check "add"
    (fun () ->
      Relation.add ~count:half (tup [ v 1 ])
        (Relation.create ~schema:(schema [ "A" ]) [ (tup [ v 1 ], half) ]))
    saturated;
  check "scale"
    (fun () ->
      Relation.scale half
        (Relation.create ~schema:(schema [ "A" ]) [ (tup [ v 1 ], 2) ]))
    saturated;
  (* Products and sums over whole query answers: a truncation profile's
     running sum of cnt·δ and the product of per-component sizes. *)
  let check_count name f =
    let result, ticks = saturations f in
    Alcotest.(check bool)
      (name ^ " saturates") true (Count.is_saturated result);
    Alcotest.(check bool) (name ^ " ticks count.saturations") true (ticks > 0)
  in
  let open Tsens_query in
  let open Tsens_sensitivity in
  let profile_answer r_rows =
    let cq = Cq.make [ ("R", [ "A" ]); ("S", [ "A" ]) ] in
    let db =
      Database.of_list
        [
          ("R", Relation.create ~schema:(schema [ "A" ]) r_rows);
          ( "S",
            Relation.create ~schema:(schema [ "A" ])
              [ (tup [ v 1 ], half); (tup [ v 2 ], half) ] );
        ]
    in
    let analysis = Tsens.analyze cq db in
    fun () ->
      Tsens_dp.Truncation.truncated_answer
        (Tsens_dp.Truncation.profile analysis "R")
        Count.max_count
  in
  (* One tuple of count 2 and sensitivity [half]: cnt·δ saturates. *)
  check_count "profile product" (profile_answer [ (tup [ v 1 ], 2) ]);
  (* Two tuples whose finite cnt·δ terms sum past max_count. *)
  check_count "profile running sum"
    (profile_answer [ (tup [ v 1 ], 1); (tup [ v 2 ], 1) ]);
  let cq = Cq.make [ ("R", [ "A" ]); ("S", [ "B" ]) ] in
  let db =
    Database.of_list
      [
        ("R", Relation.create ~schema:(schema [ "A" ]) [ (tup [ v 1 ], half) ]);
        ("S", Relation.create ~schema:(schema [ "B" ]) [ (tup [ v 1 ], 2) ]);
      ]
  in
  check_count "yannakakis component product" (fun () -> Yannakakis.count cq db);
  let single name rows =
    (name, Relation.create ~schema:(schema [ name ]) rows)
  in
  check_count "count_join product" (fun () ->
      Join.count_join
        (Relation.create ~schema:(schema [ "A" ]) [ (tup [ v 1 ], half) ])
        (Relation.create ~schema:(schema [ "A" ]) [ (tup [ v 1 ], 2) ]));
  let two_halves =
    Relation.create ~schema:(schema [ "A" ])
      [ (tup [ v 1 ], half); (tup [ v 2 ], half) ]
  in
  check_count "cardinality" (fun () -> Relation.cardinality two_halves);
  check_count "tsens output size" (fun () ->
      Tsens.output_size (Tsens.analyze cq db));
  (* An empty first component keeps every running product of component
     sizes at 0, so only the product of the other components' sizes
     that scales T's table can saturate. *)
  let cq3 = Cq.make [ ("T", [ "T" ]); ("R", [ "R" ]); ("S", [ "S" ]) ] in
  let db3 =
    Database.of_list
      [
        single "T" [];
        single "R" [ (tup [ v 1 ], half) ];
        single "S" [ (tup [ v 1 ], 2) ];
      ]
  in
  check_count "tsens other components' size" (fun () ->
      (Tsens.local_sensitivity cq3 db3).Sens_types.local_sensitivity);
  check_count "approx other components' size" (fun () ->
      (Approx.local_sensitivity ~k:4 cq3 db3).Sens_types.local_sensitivity);
  (* R's bound inside its component is U's count 2; the other
     component's size [half] is finite, and their product saturates. *)
  let cq_bound =
    Cq.make [ ("R", [ "A"; "B" ]); ("U", [ "B" ]); ("S", [ "S" ]) ]
  in
  let db_bound =
    Database.of_list
      [
        ( "R",
          Relation.create ~schema:(schema [ "A"; "B" ])
            [ (tup [ v 1; v 1 ], 1) ] );
        ("U", Relation.create ~schema:(schema [ "B" ]) [ (tup [ v 1 ], 2) ]);
        single "S" [ (tup [ v 1 ], half) ];
      ]
  in
  check_count "approx scaled bound" (fun () ->
      (Approx.local_sensitivity ~k:4 cq_bound db_bound)
        .Sens_types.local_sensitivity)

(* ------------------------------------------------------------------ *)
(* Index *)

let test_index_groups () =
  let idx = Index.build ~key:(schema [ "A" ]) r1_fig1 in
  Alcotest.(check int) "a1 group" 2 (Index.group_count idx (tup [ s "a1" ]));
  Alcotest.(check int) "a2 group" 1 (Index.group_count idx (tup [ s "a2" ]));
  Alcotest.(check int) "absent group" 0 (Index.group_count idx (tup [ s "zz" ]));
  Alcotest.(check int) "max group" 2 (Index.max_group_count idx);
  Alcotest.(check int) "a1 rows" 2
    (Array.length (Index.lookup idx (tup [ s "a1" ])))

let test_index_empty_key () =
  let idx = Index.build ~key:Schema.empty r1_fig1 in
  Alcotest.(check int) "everything in one group" 3
    (Index.group_count idx (tup []))

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_basics () =
  let h = Heap.of_list ~cmp:Int.compare [ 3; 1; 4; 1; 5; 9; 2; 6 ] in
  Alcotest.(check int) "size" 8 (Heap.size h);
  let rec drain h acc =
    match Heap.pop h with
    | None -> List.rev acc
    | Some (x, h) -> drain h (x :: acc)
  in
  Alcotest.(check (list int))
    "pops descending"
    [ 9; 6; 5; 4; 3; 2; 1; 1 ]
    (drain h []);
  Alcotest.(check bool) "empty" true (Heap.is_empty (Heap.empty ~cmp:Int.compare));
  Alcotest.(check bool) "pop empty" true
    (Heap.pop (Heap.empty ~cmp:Int.compare) = None)

let prop_heap_sorts =
  Tgen.qtest "heap drains in sorted order"
    QCheck2.Gen.(list_size (int_range 0 50) (int_range (-100) 100))
    (fun l -> String.concat "," (List.map string_of_int l))
    (fun l ->
      let rec drain h acc =
        match Heap.pop h with
        | None -> List.rev acc
        | Some (x, h) -> drain h (x :: acc)
      in
      drain (Heap.of_list ~cmp:Int.compare l) []
      = List.sort (fun a b -> Int.compare b a) l)

(* ------------------------------------------------------------------ *)
(* Database *)

let test_database_basics () =
  let db = Database.of_list [ ("R1", r1_fig1) ] in
  Alcotest.(check (list string)) "names" [ "R1" ] (Database.names db);
  Alcotest.(check int) "total" 3 (Database.total_tuples db);
  Alcotest.(check bool) "mem" true (Database.mem "R1" db);
  let db = Database.update ~name:"R1" (Relation.scale 2) db in
  Alcotest.(check int) "updated" 6 (Database.total_tuples db);
  Alcotest.check_raises "unknown relation"
    (Errors.Data_error "unknown relation R9") (fun () ->
      ignore (Database.find "R9" db))

(* ------------------------------------------------------------------ *)
(* CSV *)

let prop_csv_round_trip =
  Tgen.qtest ~count:50 "csv round trip" Tgen.relation_gen Tgen.print_relation
    (fun r ->
      let path = Filename.temp_file "tsens" ".csv" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Csv.write_file path r;
          Relation.equal r (Csv.read_file path)))

let test_csv_schema_checks () =
  let path = Filename.temp_file "tsens" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv.write_file path r1_fig1;
      (* Matching expected schema is accepted; a different one refused. *)
      let reread = Csv.read_file ~schema:(schema [ "A"; "B"; "C" ]) path in
      Alcotest.(check bool) "schema accepted" true
        (Relation.equal r1_fig1 reread);
      Alcotest.(check bool) "schema mismatch rejected" true
        (match Csv.read_file ~schema:(schema [ "X"; "Y"; "Z" ]) path with
        | exception Errors.Data_error _ -> true
        | _ -> false);
      (* Missing cnt column in the header. *)
      let oc = open_out path in
      output_string oc "A,B\n1,2\n";
      close_out oc;
      Alcotest.(check bool) "missing cnt column" true
        (match Csv.read_file path with
        | exception Errors.Data_error _ -> true
        | _ -> false))

let test_csv_rejects_garbage () =
  let path = Filename.temp_file "tsens" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "A,cnt\n1,notanumber\n";
      close_out oc;
      Alcotest.check_raises "invalid count"
        (Errors.Data_error
           "line 2: CSV row \"1,notanumber\" has invalid count \"notanumber\"")
        (fun () -> ignore (Csv.read_file path)))

let with_temp_csv f =
  let path = Filename.temp_file "tsens" ".csv" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let write_text path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

(* Input must preserve fields exactly as written in the file: only the
   line terminator (optionally '\r\n') is stripped, never field
   whitespace. The seed code trimmed the whole line, so " x" came back
   as "x". *)
let test_csv_input_preserves_edge_whitespace () =
  with_temp_csv (fun path ->
      write_text path "A,B,cnt\n x,y ,1\nu,\tv,2\n";
      let r = Csv.read_file path in
      Alcotest.check Tgen.relation_testable "fields kept verbatim"
        (Relation.create
           ~schema:(schema [ "A"; "B" ])
           [
             (tup [ s " x"; s "y " ], 1);
             (tup [ s "u"; s "\tv" ], 2);
           ])
        r)

let test_csv_input_strips_crlf () =
  with_temp_csv (fun path ->
      write_text path "A,cnt\r\n7,2\r\n";
      Alcotest.check Tgen.relation_testable "windows line endings"
        (Relation.create ~schema:(schema [ "A" ]) [ (tup [ v 7 ], 2) ])
        (Csv.read_file path))

(* Output refuses anything input could not hand back unchanged. *)
let test_csv_output_rejects_edge_whitespace () =
  with_temp_csv (fun path ->
      let r =
        Relation.create ~schema:(schema [ "A" ]) [ (tup [ s " x" ], 1) ]
      in
      Alcotest.(check bool) "whitespace field rejected" true
        (match Csv.write_file path r with
        | exception Errors.Data_error _ -> true
        | () -> false))

let test_csv_output_rejects_empty_header () =
  with_temp_csv (fun path ->
      let r = Relation.create ~schema:(schema [ "" ]) [ (tup [ v 1 ], 1) ] in
      Alcotest.(check bool) "empty attribute name rejected" true
        (match Csv.write_file path r with
        | exception Errors.Data_error _ -> true
        | () -> false))

(* A saturated count is only a lower bound; the seed wrote it as
   string_of_int max_int and a re-import silently believed it. *)
let test_csv_output_rejects_saturated_count () =
  with_temp_csv (fun path ->
      let r =
        Relation.create
          ~schema:(schema [ "A" ])
          [ (tup [ v 1 ], Count.max_count) ]
      in
      Alcotest.(check bool) "saturated count rejected" true
        (match Csv.write_file path r with
        | exception Errors.Data_error _ -> true
        | () -> false))

(* Zero counts are refused by both entrances: the reader's own check and
   Relation.check_row behind Relation.create. *)
let test_csv_zero_count_rejected () =
  with_temp_csv (fun path ->
      write_text path "A,cnt\n1,0\n";
      Alcotest.check_raises "reader rejects zero"
        (Errors.Data_error "line 2: CSV row \"1,0\" has invalid count \"0\"")
        (fun () -> ignore (Csv.read_file path)));
  Alcotest.(check bool) "check_row rejects zero" true
    (match Relation.create ~schema:(schema [ "A" ]) [ (tup [ v 1 ], 0) ] with
    | exception Errors.Data_error _ -> true
    | _ -> false)

(* The hardened round-trip property: for relations over tricky string
   values, export either succeeds and reads back identical, or raises
   Data_error — it never silently corrupts. *)
let tricky_relation_gen =
  QCheck2.Gen.(
    let tricky_value =
      oneof
        [
          map Value.int (int_range 0 4);
          map Value.str
            (oneofl [ " x"; "x"; "x "; "a b"; "\tq"; "r\t"; "" ]);
        ]
    in
    list_size (int_range 1 8)
      (pair (map Tuple.of_list (list_repeat 2 tricky_value)) (int_range 1 3))
    >>= fun rows ->
    return (Relation.create ~schema:(schema [ "A"; "B" ]) rows))

let prop_csv_round_trip_or_rejects =
  Tgen.qtest ~count:200 "csv round trips or rejects loudly"
    tricky_relation_gen Tgen.print_relation (fun r ->
      let path = Filename.temp_file "tsens" ".csv" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          match Csv.write_file path r with
          | exception Errors.Data_error _ -> true
          | () -> Relation.equal r (Csv.read_file path)))

(* The 1-based line of a [Csv.input] error, read from its message. *)
let csv_error_line msg =
  try Scanf.sscanf msg "line %d: %_s" Option.some with
  | Scanf.Scan_failure _ | Failure _ | End_of_file -> None

(* [Count.max_count] as a CSV field. It is the saturation point, only a
   lower bound, so import must not read it as an exact multiplicity. *)
let max_count_text = string_of_int Count.max_count

let test_csv_positioned_errors () =
  List.iter
    (fun (name, expected, text, line) ->
      with_temp_csv (fun path ->
          write_text path text;
          match Csv.read_file ?schema:expected path with
          | _ -> Alcotest.failf "%s: accepted" name
          | exception Errors.Data_error msg ->
              Alcotest.(check (option int)) (name ^ ": " ^ msg) (Some line)
                (csv_error_line msg)))
    [
      ("empty input", None, "", 1);
      ("missing cnt column", None, "A,B\n1,2\n", 1);
      ("duplicate attribute", None, "A,A,cnt\n1,1,1\n", 1);
      ("header mismatch", Some (schema [ "X" ]), "A,cnt\n1,1\n", 1);
      ("field count", None, "A,cnt\n1,1\n\n1,2,3\n", 4);
      ("invalid count", None, "A,B,cnt\r\n1,2,3\r\n4,5,x\r\n", 3);
      ("saturated count", None, "A,cnt\n1,1\n2," ^ max_count_text ^ "\n", 3);
    ]

(* Lines drawn from a small alphabet (separators, digits, letters,
   blanks, '\r', the cnt keyword and the saturated count) hit every
   error path. Import either returns a relation or raises Data_error
   naming a line of the input; any other exception fails. *)
let csv_text_gen =
  QCheck2.Gen.(
    let token =
      oneofl
        [
          ","; ","; "0"; "1"; "2"; "7"; "a"; "B"; "x"; " "; "\t"; "\r"; "cnt";
          max_count_text;
        ]
    in
    let line = map (String.concat "") (list_size (int_range 0 6) token) in
    let header =
      oneof [ line; oneofl [ "A,cnt"; "A,B,cnt"; "cnt"; "A,A,cnt"; "A,cnt\r" ] ]
    in
    header >>= fun h ->
    list_size (int_range 0 5) line >>= fun rows ->
    return (String.concat "\n" (h :: rows)))

let prop_csv_fuzz =
  Tgen.qtest ~count:500 "fuzzed input: relation or line error"
    csv_text_gen (Printf.sprintf "%S") (fun text ->
      with_temp_csv (fun path ->
          write_text path text;
          let lines = List.length (String.split_on_char '\n' text) in
          match Csv.read_file path with
          | _ -> true
          | exception Errors.Data_error msg -> (
              match csv_error_line msg with
              | Some n -> 1 <= n && n <= lines
              | None -> false)))

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  let seq_a = List.init 16 (fun _ -> Prng.int a 1000) in
  let seq_b = List.init 16 (fun _ -> Prng.int b 1000) in
  Alcotest.(check (list int)) "same seed same stream" seq_a seq_b;
  let c = Prng.create 43 in
  let seq_c = List.init 16 (fun _ -> Prng.int c 1000) in
  Alcotest.(check bool) "different seed differs" true (seq_a <> seq_c)

let test_prng_bounds () =
  let t = Prng.create 7 in
  for _ = 1 to 1000 do
    let x = Prng.int t 10 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 10);
    let y = Prng.int_in t 5 9 in
    Alcotest.(check bool) "int_in range" true (y >= 5 && y <= 9);
    let u = Prng.uniform t in
    Alcotest.(check bool) "uniform open interval" true (u > 0.0 && u < 1.0)
  done

let test_prng_shuffle_is_permutation () =
  let t = Prng.create 11 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle t arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_prng_split_independent () =
  let parent = Prng.create 1 in
  let child = Prng.split parent in
  let a = List.init 8 (fun _ -> Prng.int parent 100) in
  let b = List.init 8 (fun _ -> Prng.int child 100) in
  Alcotest.(check bool) "streams differ" true (a <> b)

let () =
  Alcotest.run "relational"
    [
      ( "count",
        [
          Alcotest.test_case "saturating add" `Quick test_count_saturating_add;
          Alcotest.test_case "saturating mul" `Quick test_count_saturating_mul;
          Alcotest.test_case "pow" `Quick test_count_pow;
          Alcotest.test_case "of_int" `Quick test_count_of_int;
          Alcotest.test_case "saturation boundary" `Quick test_count_boundary;
        ] );
      ( "value",
        [
          Alcotest.test_case "ordering" `Quick test_value_order;
          Alcotest.test_case "string round trip" `Quick test_value_round_trip;
          Alcotest.test_case "accessors" `Quick test_value_accessors;
        ] );
      ( "hashing",
        [
          Alcotest.test_case "tuple bucket skew" `Quick test_tuple_bucket_skew;
          Alcotest.test_case "value hash constructors" `Quick
            test_value_hash_constructors;
        ] );
      ( "schema",
        [
          Alcotest.test_case "duplicates rejected" `Quick test_schema_duplicate;
          Alcotest.test_case "set operations" `Quick test_schema_set_ops;
          Alcotest.test_case "positions" `Quick test_schema_positions;
          Alcotest.test_case "rename" `Quick test_schema_rename;
          Alcotest.test_case "set equality" `Quick test_schema_equal_as_sets;
        ] );
      ( "tuple",
        [
          Alcotest.test_case "compare" `Quick test_tuple_compare;
          Alcotest.test_case "project" `Quick test_tuple_project;
        ] );
      ( "relation",
        [
          Alcotest.test_case "normalization" `Quick test_relation_normalizes;
          Alcotest.test_case "validation" `Quick test_relation_create_validation;
          Alcotest.test_case "project sums counts" `Quick
            test_relation_project_sums;
          Alcotest.test_case "filter" `Quick test_relation_filter;
          Alcotest.test_case "add/remove" `Quick test_relation_add_remove;
          Alcotest.test_case "remove clamps" `Quick test_relation_remove_clamp;
          Alcotest.test_case "max_row" `Quick test_relation_max_row;
          Alcotest.test_case "max_frequency" `Quick test_relation_max_frequency;
          Alcotest.test_case "active_domain" `Quick test_relation_active_domain;
          Alcotest.test_case "reorder" `Quick test_relation_reorder;
          Alcotest.test_case "identity reorder and project" `Quick
            test_relation_identity_reorder_project;
          Alcotest.test_case "scale" `Quick test_relation_scale;
          prop_project_preserves_cardinality;
          prop_mem_matches_count;
          prop_add_remove_round_trip;
        ] );
      ( "join",
        [
          Alcotest.test_case "paper figure 1" `Quick test_join_figure1;
          Alcotest.test_case "counts multiply" `Quick test_join_counts_multiply;
          Alcotest.test_case "cross product" `Quick test_join_cross_product;
          Alcotest.test_case "semijoin" `Quick test_semijoin;
          prop_join_project_consistent;
          prop_count_join_consistent;
          prop_join_commutes_on_counts;
          prop_join_project_all_consistent;
          prop_merge_join_equals_hash_join;
          prop_merge_join_cross_product;
          prop_semijoin_no_growth;
          prop_fast_equals_reference;
          prop_natural_join_equals_reference;
          prop_count_join_equals_reference;
          prop_semijoin_equals_reference;
          prop_join_project_equals_reference;
          prop_full_schema_join_project_equals_reference;
          prop_project_equals_reference;
          Alcotest.test_case "saturation ticks" `Quick
            test_kernel_saturation_ticks;
        ] );
      ( "index",
        [
          Alcotest.test_case "groups" `Quick test_index_groups;
          Alcotest.test_case "empty key" `Quick test_index_empty_key;
          prop_index_equals_reference;
        ] );
      ( "heap",
        [
          Alcotest.test_case "basics" `Quick test_heap_basics;
          prop_heap_sorts;
        ] );
      ("database", [ Alcotest.test_case "basics" `Quick test_database_basics ]);
      ( "csv",
        [
          prop_csv_round_trip;
          Alcotest.test_case "schema checks" `Quick test_csv_schema_checks;
          Alcotest.test_case "rejects garbage" `Quick test_csv_rejects_garbage;
          Alcotest.test_case "input preserves edge whitespace" `Quick
            test_csv_input_preserves_edge_whitespace;
          Alcotest.test_case "input strips CRLF" `Quick
            test_csv_input_strips_crlf;
          Alcotest.test_case "output rejects edge whitespace" `Quick
            test_csv_output_rejects_edge_whitespace;
          Alcotest.test_case "output rejects empty header" `Quick
            test_csv_output_rejects_empty_header;
          Alcotest.test_case "output rejects saturated count" `Quick
            test_csv_output_rejects_saturated_count;
          Alcotest.test_case "zero count rejected" `Quick
            test_csv_zero_count_rejected;
          Alcotest.test_case "positioned errors" `Quick
            test_csv_positioned_errors;
          prop_csv_fuzz;
          prop_csv_round_trip_or_rejects;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "shuffle permutes" `Quick
            test_prng_shuffle_is_permutation;
          Alcotest.test_case "split independence" `Quick
            test_prng_split_independent;
        ] );
    ]
