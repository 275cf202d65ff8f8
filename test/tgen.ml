(* Shared QCheck generators, Alcotest testables and checks for all suites. *)

open Tsens_relational
open Tsens_query
open Tsens_sensitivity

let value_testable = Alcotest.testable Value.pp Value.equal
let tuple_testable = Alcotest.testable Tuple.pp Tuple.equal
let schema_testable = Alcotest.testable Schema.pp Schema.equal
let relation_testable = Alcotest.testable Relation.pp Relation.equal

let relation_semantic =
  Alcotest.testable Relation.pp Relation.equal_semantic

(* Small integer values keep join selectivity high so random relations
   actually join. *)
let value_gen =
  QCheck2.Gen.(map Value.int (int_range 0 4))

let tuple_gen arity =
  QCheck2.Gen.(map Tuple.of_list (list_repeat arity value_gen))

let attr_pool = [| "A"; "B"; "C"; "D"; "E"; "F" |]

let schema_gen =
  (* A random non-empty sub-list of the pool, keeping pool order so the
     result has no duplicates. *)
  QCheck2.Gen.(
    list_repeat (Array.length attr_pool) bool >>= fun mask ->
    let attrs =
      List.filteri (fun i _ -> List.nth mask i) (Array.to_list attr_pool)
    in
    let attrs = if attrs = [] then [ "A" ] else attrs in
    return (Schema.of_list attrs))

let relation_of_schema_gen ?(count_gen = QCheck2.Gen.int_range 1 3) schema =
  QCheck2.Gen.(
    list_size (int_range 0 12)
      (pair (tuple_gen (Schema.arity schema)) count_gen)
    >>= fun rows -> return (Relation.create ~schema rows))

let relation_gen = QCheck2.Gen.(schema_gen >>= relation_of_schema_gen)

(* A pair of relations guaranteed to share at least one attribute. *)
let joinable_pair_of ?count_gen () =
  QCheck2.Gen.(
    schema_gen >>= fun s1 ->
    schema_gen >>= fun s2 ->
    let s2 =
      if Schema.disjoint s1 s2 then
        Schema.union s2 (Schema.of_list [ List.hd (Schema.attrs s1) ])
      else s2
    in
    relation_of_schema_gen ?count_gen s1 >>= fun r1 ->
    relation_of_schema_gen ?count_gen s2 >>= fun r2 -> return (r1, r2))

let joinable_pair_gen = joinable_pair_of ()

(* Counts near and at [Count.max_count]: products and group sums
   saturate. *)
let saturating_pair_gen =
  joinable_pair_of
    ~count_gen:
      (QCheck2.Gen.oneofl [ 1; 2; (Count.max_count / 2) + 1; Count.max_count ])
    ()

(* Group schemas covering every way a join's group key can be read from
   its two sides: the joined schema in and out of order, one side only
   (also permuted), the common attributes, and the nullary group. *)
let group_variants a b =
  let sa = Relation.schema a and sb = Relation.schema b in
  let rev s = Schema.of_list (List.rev (Schema.attrs s)) in
  let union = Schema.union sa sb in
  [ union; rev union; sa; rev sb; Schema.inter sa sb; Schema.empty ]

(* Projection targets of a relation: itself, a permutation, and the
   nullary schema. *)
let target_variants r =
  let s = Relation.schema r in
  [ s; Schema.of_list (List.rev (Schema.attrs s)); Schema.empty ]

(* A random subset of [s] in random order. *)
let sub_schema_gen s =
  QCheck2.Gen.(
    shuffle_l (Schema.attrs s) >>= fun attrs ->
    int_range 0 (List.length attrs) >>= fun k ->
    return (Schema.of_list (List.filteri (fun i _ -> i < k) attrs)))

let print_relation r = Format.asprintf "%a" Relation.pp r

let print_relation_pair (a, b) =
  Format.asprintf "%a@.---@.%a" Relation.pp a Relation.pp b

let qtest ?(count = 200) name gen print prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ~print gen prop)

(* Fuzzed source text for a parser: a run of the language's own
   fragments (so many inputs are nearly valid) mixed with arbitrary
   bytes, after [prefix] half the time (so the fuzz reaches past the
   first keywords). *)
let fuzz_text_gen ~prefix fragments =
  QCheck2.Gen.(
    let piece =
      frequency
        [
          (6, oneofl fragments);
          (1, map (String.make 1) char);
          (1, oneofl [ " "; "\n"; "\t"; "\r\n" ]);
        ]
    in
    pair bool (list_size (int_range 0 16) piece) >>= fun (prefixed, pieces) ->
    return ((if prefixed then prefix else "") ^ String.concat "" pieces))

(* A parser's result on fuzzed [text] is acceptable when it parsed or
   failed with a span inside the text. *)
let positioned text = function
  | Ok _ -> true
  | Error (_, None) -> false
  | Error (_, Some span) ->
      0 <= span.Srcspan.start_ofs
      && span.Srcspan.start_ofs <= span.Srcspan.stop_ofs
      && span.Srcspan.stop_ofs <= String.length text

(* Theorem 4.1's space bound on a path query: each multiplicity table
   stores at most 1 + Σ distinct rows of the instance, because an
   interior table keeps ⊤ and ⊥ apart instead of holding its
   representative domain. The tables over that bound, with their rows. *)
let oversized_tables cq db =
  let bound =
    List.fold_left
      (fun acc (_, r) -> acc + Relation.distinct_count r)
      1 (Cq.instance cq db)
  in
  let _, tables = Tsens.statistics (Tsens.analyze cq db) in
  List.filter_map
    (fun t ->
      if t.Tsens.table_rows > bound then
        Some (t.Tsens.table_relation, t.Tsens.table_rows)
      else None)
    tables

(* The independent point oracle on a result's witness: re-evaluating the
   query with the witness added or removed moves |Q(D)| by exactly LS. *)
let check_witness_attains_ls cq db r =
  match r.Sens_types.witness with
  | None -> Alcotest.fail "expected a witness"
  | Some w ->
      Alcotest.(check int)
        "naive δ(witness) = LS" r.Sens_types.local_sensitivity
        (Naive.tuple_sensitivity cq db w.Sens_types.relation
           w.Sens_types.tuple)
