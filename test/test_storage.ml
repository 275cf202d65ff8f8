(* The storage layer: row/columnar equivalence properties (the columnar
   kernels must be bit-identical to the row oracle, also with the cache
   on), plus units for the dictionary, the columnar boundary, the
   integer-key tables and the hash-quality regressions that the hash
   tables lean on. *)

open Tsens_relational
open Tsens_query
open Tsens_sensitivity

let with_cache enabled f =
  let saved = Cache.enabled () in
  Cache.set_enabled enabled;
  Fun.protect ~finally:(fun () -> Cache.set_enabled saved) f

(* Columnar [f] equals row-mode [f]. *)
let columnar_matches_row equal f =
  equal
    (Storage.with_mode Storage.Row f)
    (Storage.with_mode Storage.Columnar f)

(* ------------------------------------------------------------------ *)
(* Kernel equivalence properties *)

let prop_natural_join_modes =
  Tgen.qtest "natural_join columnar = row" Tgen.joinable_pair_gen
    Tgen.print_relation_pair (fun (a, b) ->
      columnar_matches_row Relation.equal (fun () -> Join.natural_join a b))

let prop_join_project_modes =
  Tgen.qtest "join_project columnar = row" Tgen.joinable_pair_gen
    Tgen.print_relation_pair (fun (a, b) ->
      let group = Schema.inter (Relation.schema a) (Relation.schema b) in
      columnar_matches_row Relation.equal (fun () ->
          Join.join_project ~group a b))

(* Group key outside the join key: every combined column is grouped. *)
let prop_join_project_wide_group =
  Tgen.qtest "join_project full-schema group columnar = row"
    Tgen.joinable_pair_gen Tgen.print_relation_pair (fun (a, b) ->
      let group = Schema.union (Relation.schema a) (Relation.schema b) in
      columnar_matches_row Relation.equal (fun () ->
          Join.join_project ~group a b))

let prop_count_join_modes =
  Tgen.qtest "count_join columnar = row" Tgen.joinable_pair_gen
    Tgen.print_relation_pair (fun (a, b) ->
      columnar_matches_row Count.equal (fun () -> Join.count_join a b))

let prop_project_modes =
  Tgen.qtest "project columnar = row" Tgen.relation_gen Tgen.print_relation
    (fun r ->
      let target =
        match Schema.attrs (Relation.schema r) with
        | first :: _ -> Schema.of_list [ first ]
        | [] -> Schema.empty
      in
      columnar_matches_row Relation.equal (fun () -> Relation.project target r))

(* ------------------------------------------------------------------ *)
(* Sensitivity equivalence (the kernels composed end to end) *)

let result_equal (a : Sens_types.result) (b : Sens_types.result) =
  let witness_equal w1 w2 =
    match (w1, w2) with
    | None, None -> true
    | Some w1, Some w2 ->
        String.equal w1.Sens_types.relation w2.Sens_types.relation
        && Schema.equal w1.Sens_types.schema w2.Sens_types.schema
        && Tuple.equal w1.Sens_types.tuple w2.Sens_types.tuple
        && Count.equal w1.Sens_types.sensitivity w2.Sens_types.sensitivity
    | _ -> false
  in
  Count.equal a.local_sensitivity b.local_sensitivity
  && witness_equal a.witness b.witness
  && List.equal
       (fun (r1, c1) (r2, c2) -> String.equal r1 r2 && Count.equal c1 c2)
       a.per_relation b.per_relation

let path_cq = Cq.make ~name:"qstore" [ ("R", [ "A"; "B" ]); ("S", [ "B"; "C" ]) ]

let path_db_gen =
  QCheck2.Gen.(
    Tgen.relation_of_schema_gen (Schema.of_list [ "A"; "B" ]) >>= fun r ->
    Tgen.relation_of_schema_gen (Schema.of_list [ "B"; "C" ]) >>= fun s ->
    return (Database.of_list [ ("R", r); ("S", s) ]))

let print_db db =
  Database.fold
    (fun name rel acc ->
      acc ^ Format.asprintf "%s:@.%a@." name Relation.pp rel)
    db ""

let prop_tsens_modes =
  Tgen.qtest ~count:60 "tsens columnar = row" path_db_gen print_db (fun db ->
      columnar_matches_row result_equal (fun () ->
          Tsens.local_sensitivity path_cq db))

let prop_tsens_modes_cached =
  Tgen.qtest ~count:40 "tsens columnar = row with cache" path_db_gen print_db
    (fun db ->
      with_cache true @@ fun () ->
      columnar_matches_row result_equal (fun () ->
          Tsens.local_sensitivity path_cq db))

let prop_elastic_modes =
  Tgen.qtest ~count:60 "elastic columnar = row" path_db_gen print_db (fun db ->
      columnar_matches_row result_equal (fun () ->
          Elastic.local_sensitivity path_cq db))

(* ------------------------------------------------------------------ *)
(* Dictionary units *)

let v_int n = Value.Int n
let v_str s = Value.Str s

let test_dict_intern_stable () =
  let id1 = Dict.intern (v_str "storage-test-a") in
  let id2 = Dict.intern (v_str "storage-test-a") in
  Alcotest.(check int) "same id on re-intern" id1 id2;
  Alcotest.(check bool)
    "distinct values, distinct ids" true
    (Dict.intern (v_str "storage-test-b") <> id1);
  Alcotest.(check bool)
    "decode inverts intern" true
    (Value.equal (v_str "storage-test-a") (Dict.value id1))

let test_dict_find_opt () =
  let id = Dict.intern (v_int 123456) in
  Alcotest.(check (option int)) "present" (Some id) (Dict.find_opt (v_int 123456));
  Alcotest.(check (option int))
    "absent without interning" None
    (Dict.find_opt (v_str "storage-test-never-interned"));
  Alcotest.(check (option int))
    "still absent" None
    (Dict.find_opt (v_str "storage-test-never-interned"))

(* Typed distinctly from equal-looking values of other constructors. *)
let test_dict_constructors_distinct () =
  let i = Dict.intern (v_int 1) in
  let s = Dict.intern (v_str "1") in
  let b = Dict.intern (Value.Bool true) in
  Alcotest.(check bool) "int/str" true (i <> s);
  Alcotest.(check bool) "int/bool" true (i <> b);
  Alcotest.(check bool) "str/bool" true (s <> b)

let test_dict_generation_reset () =
  let g0 = Dict.generation () in
  let r =
    Relation.of_rows
      ~schema:(Schema.of_attrs [ "A" ])
      [ [ v_int 7 ]; [ v_int 8 ] ]
  in
  let c0 = Relation.encoded r in
  Alcotest.(check int) "encoding stamped" g0 (Colrel.generation c0);
  Dict.reset ();
  Alcotest.(check bool) "generation bumped" true (Dict.generation () > g0);
  (* The memoized encoding is stale: [encoded] must rebuild under the
     new generation rather than decode through the wrong mapping. *)
  let c1 = Relation.encoded r in
  Alcotest.(check int) "rebuilt under new generation" (Dict.generation ())
    (Colrel.generation c1);
  Alcotest.check Tgen.relation_testable "round-trips after reset" r
    (Relation.of_encoded c1)

(* ------------------------------------------------------------------ *)
(* Columnar boundary *)

let prop_encode_roundtrip =
  Tgen.qtest "of_encoded (encoded r) = r" Tgen.relation_gen
    Tgen.print_relation (fun r ->
      Relation.equal r (Relation.of_encoded (Relation.encoded r)))

let prop_index_modes =
  Tgen.qtest "index probes columnar = row" Tgen.joinable_pair_gen
    Tgen.print_relation_pair (fun (a, b) ->
      let key = Schema.inter (Relation.schema a) (Relation.schema b) in
      let probe idx =
        (* Probe with every key of [a], present or not in [b]. *)
        Relation.fold
          (fun tup _ acc ->
            let k =
              Tuple.project (Schema.positions ~sub:key (Relation.schema a)) tup
            in
            (Index.group_count idx k, Array.length (Index.lookup idx k)) :: acc)
          a []
      in
      let run mode =
        Storage.with_mode mode (fun () -> probe (Index.build ~key b))
      in
      List.equal
        (fun (c1, n1) (c2, n2) -> Count.equal c1 c2 && n1 = n2)
        (run Storage.Row) (run Storage.Columnar))

(* ------------------------------------------------------------------ *)
(* Hash quality regressions *)

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
  let singles = List.init n (fun i -> Tuple.of_list [ v_int i ]) in
  let pairs_seq =
    List.init n (fun i -> Tuple.of_list [ v_int i; v_int (i + 1) ])
  in
  let pairs_const =
    List.init n (fun i -> Tuple.of_list [ v_int 7; v_int i ])
  in
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

let test_intkey_mix_spread () =
  let parts = 8 and n = 4096 in
  let counts = Array.make parts 0 in
  for i = 0 to n - 1 do
    let b = Intkey.mix i mod parts in
    counts.(b) <- counts.(b) + 1
  done;
  let mean = float_of_int n /. float_of_int parts in
  Alcotest.(check bool)
    "mixed sequential ids spread evenly" true
    (Array.for_all (fun c -> float_of_int c <= 2.0 *. mean) counts);
  Alcotest.(check bool)
    "mix is non-negative" true
    (List.for_all (fun x -> Intkey.mix x >= 0) [ 0; 1; max_int; -1; -max_int ])

let test_value_hash_constructors () =
  Alcotest.(check bool)
    "equal values hash equal" true
    (Value.hash (v_int 42) = Value.hash (v_int 42));
  (* Not guaranteed for arbitrary hashes, but deterministic here: the
     constructor tags must keep these common collision shapes apart. *)
  Alcotest.(check bool)
    "Int 1 vs Str \"1\"" true
    (Value.hash (v_int 1) <> Value.hash (v_str "1"));
  Alcotest.(check bool)
    "Int 0 vs Bool false" true
    (Value.hash (v_int 0) <> Value.hash (Value.Bool false))

(* ------------------------------------------------------------------ *)
(* Itab / Keydict units *)

let test_itab_basics () =
  let t = Intkey.Itab.create 4 in
  Alcotest.(check int) "absent" (-1) (Intkey.Itab.find t 5 ~default:(-1));
  (* Grow well past the initial hint. *)
  for k = 0 to 99 do
    Intkey.Itab.set t k (k * k)
  done;
  Alcotest.(check int) "length" 100 (Intkey.Itab.length t);
  Alcotest.(check int) "find after grow" 81 (Intkey.Itab.find t 9 ~default:0);
  Alcotest.(check int) "exchange returns old" 81
    (Intkey.Itab.exchange t 9 7 ~default:0);
  Alcotest.(check int) "exchange stored new" 7 (Intkey.Itab.find t 9 ~default:0);
  let sum = Intkey.Itab.fold (fun _ v acc -> acc + v) t 0 in
  let expected =
    List.fold_left ( + ) 0 (List.init 100 (fun k -> k * k)) - 81 + 7
  in
  Alcotest.(check int) "fold visits everything" expected sum

let test_itab_add_count_saturates () =
  let t = Intkey.Itab.create 4 in
  Intkey.Itab.add_count t 1 (Count.max_count - 1);
  Intkey.Itab.add_count t 1 5;
  Alcotest.(check bool)
    "saturates like Count.add" true
    (Count.is_saturated (Intkey.Itab.find t 1 ~default:0))

let test_keydict_basics () =
  let kd = Intkey.Keydict.create ~arity:2 4 in
  let id_ab = Intkey.Keydict.lookup_or_add kd [| 1; 2 |] in
  let id_ba = Intkey.Keydict.lookup_or_add kd [| 2; 1 |] in
  Alcotest.(check bool) "order matters" true (id_ab <> id_ba);
  Alcotest.(check int) "stable" id_ab (Intkey.Keydict.lookup_or_add kd [| 1; 2 |]);
  Alcotest.(check int) "lookup finds" id_ab (Intkey.Keydict.lookup kd [| 1; 2 |]);
  Alcotest.(check int) "lookup misses" (-1) (Intkey.Keydict.lookup kd [| 9; 9 |]);
  Alcotest.(check int) "component recall" 2 (Intkey.Keydict.get kd id_ab 1);
  (* The caller's scratch array is copied, not captured. *)
  let scratch = [| 5; 6 |] in
  let id = Intkey.Keydict.lookup_or_add kd scratch in
  scratch.(0) <- 99;
  Alcotest.(check int) "scratch mutation harmless" id
    (Intkey.Keydict.lookup kd [| 5; 6 |]);
  Alcotest.(check int) "length" 3 (Intkey.Keydict.length kd)

let () =
  Alcotest.run "storage"
    [
      ( "equivalence",
        [
          prop_natural_join_modes;
          prop_join_project_modes;
          prop_join_project_wide_group;
          prop_count_join_modes;
          prop_project_modes;
        ] );
      ( "sensitivity",
        [ prop_tsens_modes; prop_tsens_modes_cached; prop_elastic_modes ] );
      ( "dict",
        [
          Alcotest.test_case "intern stable" `Quick test_dict_intern_stable;
          Alcotest.test_case "find_opt" `Quick test_dict_find_opt;
          Alcotest.test_case "constructors distinct" `Quick
            test_dict_constructors_distinct;
          Alcotest.test_case "generation reset" `Quick
            test_dict_generation_reset;
        ] );
      ( "boundary", [ prop_encode_roundtrip; prop_index_modes ] );
      ( "hashing",
        [
          Alcotest.test_case "tuple bucket skew" `Quick test_tuple_bucket_skew;
          Alcotest.test_case "intkey mix spread" `Quick test_intkey_mix_spread;
          Alcotest.test_case "value hash constructors" `Quick
            test_value_hash_constructors;
        ] );
      ( "intkey",
        [
          Alcotest.test_case "itab basics" `Quick test_itab_basics;
          Alcotest.test_case "itab add_count saturates" `Quick
            test_itab_add_count_saturates;
          Alcotest.test_case "keydict basics" `Quick test_keydict_basics;
        ] );
    ]
