(* The execution layer: pool unit tests plus the central determinism
   property — every parallel kernel returns results bit-identical to
   jobs=1 at any job count.

   The determinism properties force the partitioned code paths onto the
   small QCheck relations by dropping the sequential cutoff to 1 for the
   duration of each check. *)

open Tsens_relational
open Tsens_query
open Tsens_sensitivity

let with_cutoff n f =
  let saved = Exec.sequential_cutoff () in
  Exec.set_sequential_cutoff n;
  Fun.protect ~finally:(fun () -> Exec.set_sequential_cutoff saved) f

(* [f] produces the same value at jobs 2 and 4 as at jobs 1, with the
   cutoff lowered so even tiny inputs take the parallel paths. *)
let same_at_all_jobs equal f =
  with_cutoff 1 @@ fun () ->
  let reference = Exec.with_jobs 1 f in
  List.for_all (fun j -> equal reference (Exec.with_jobs j f)) [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Pool units *)

let test_empty_inputs () =
  Exec.with_jobs 4 @@ fun () ->
  Alcotest.(check (array int)) "map on empty" [||] (Exec.parallel_map succ [||]);
  Alcotest.(check (list int)) "map on nil" [] (Exec.parallel_map_list succ []);
  Exec.parallel_for 5 5 (fun _ -> Alcotest.fail "body on empty range");
  Exec.run_tasks [||]

let test_map_order () =
  Exec.with_jobs 4 @@ fun () ->
  let input = Array.init 1000 Fun.id in
  Alcotest.(check (array int))
    "parallel map matches sequential" (Array.map succ input)
    (Exec.parallel_map succ input)

let test_for_covers_range () =
  Exec.with_jobs 4 @@ fun () ->
  let hits = Array.make 1000 0 in
  Exec.parallel_for 0 1000 (fun i -> hits.(i) <- hits.(i) + 1);
  Alcotest.(check bool) "each index exactly once" true
    (Array.for_all (( = ) 1) hits)

let test_exception_propagates () =
  Exec.with_jobs 2 @@ fun () ->
  match
    Exec.parallel_map (fun i -> if i = 37 then failwith "boom" else i)
      (Array.init 100 Fun.id)
  with
  | exception Failure m -> Alcotest.(check string) "message" "boom" m
  | _ -> Alcotest.fail "expected Failure"

(* A failing region must leave the pool usable. *)
let test_pool_survives_exception () =
  Exec.with_jobs 2 @@ fun () ->
  (try
     Exec.parallel_for 0 100 (fun i -> if i mod 10 = 3 then failwith "boom")
   with Failure _ -> ());
  Alcotest.(check (array int)) "next region runs" [| 1; 2; 3 |]
    (Exec.parallel_map succ [| 0; 1; 2 |])

let test_nested_calls () =
  Exec.with_jobs 4 @@ fun () ->
  let expected =
    Array.init 20 (fun i ->
        Array.fold_left ( + ) 0 (Array.init 20 (fun j -> i * j)))
  in
  let got =
    Exec.parallel_map
      (fun i ->
        (* Runs inside a region task: must fall back to sequential
           execution instead of deadlocking on the pool. *)
        Array.fold_left ( + ) 0
          (Exec.parallel_map (fun j -> i * j) (Array.init 20 Fun.id)))
      (Array.init 20 Fun.id)
  in
  Alcotest.(check (array int)) "nested map correct" expected got

let test_with_jobs_restores () =
  let before = Exec.jobs () in
  Exec.with_jobs 3 (fun () ->
      Alcotest.(check int) "inside" 3 (Exec.jobs ()));
  Alcotest.(check int) "restored" before (Exec.jobs ());
  (try Exec.with_jobs 3 (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "restored after exception" before (Exec.jobs ())

let test_jobs_clamped () =
  Exec.with_jobs 0 (fun () ->
      Alcotest.(check int) "floor at 1" 1 (Exec.jobs ()));
  Exec.with_jobs 1000 (fun () ->
      Alcotest.(check int) "ceiling at 64" 64 (Exec.jobs ()))

let test_pays_off_gating () =
  with_cutoff 10 @@ fun () ->
  Exec.with_jobs 4 (fun () ->
      Alcotest.(check bool) "below cutoff" false (Exec.pays_off 9);
      Alcotest.(check bool) "at cutoff" true (Exec.pays_off 10));
  Exec.with_jobs 1 (fun () ->
      Alcotest.(check bool) "never at one job" false (Exec.pays_off 1000))

(* ------------------------------------------------------------------ *)
(* Determinism of the relational kernels *)

let prop_natural_join_jobs =
  Tgen.qtest "natural_join identical across jobs" Tgen.joinable_pair_gen
    Tgen.print_relation_pair (fun (a, b) ->
      same_at_all_jobs Relation.equal (fun () -> Join.natural_join a b))

let prop_merge_join_jobs =
  Tgen.qtest "merge_join identical across jobs" Tgen.joinable_pair_gen
    Tgen.print_relation_pair (fun (a, b) ->
      same_at_all_jobs Relation.equal (fun () -> Join.merge_join a b))

(* The group shapes of test_relation's reference property (permuted,
   one-sided, nullary), on ordinary and saturating counts, with each side
   also emptied. *)
let pair_cases_gen =
  QCheck2.Gen.(
    oneof [ Tgen.joinable_pair_gen; Tgen.saturating_pair_gen ] >>= fun (a, b) ->
    let empty r = Relation.empty (Relation.schema r) in
    return [ (a, b); (empty a, b); (a, empty b) ])

let print_pair_cases cases = Tgen.print_relation_pair (List.hd cases)

let for_all_groups cases f =
  List.for_all
    (fun (a, b) -> List.for_all (fun group -> f group a b) (Tgen.group_variants a b))
    cases

let prop_join_project_jobs =
  Tgen.qtest ~count:100 "join_project identical across jobs" pair_cases_gen
    print_pair_cases (fun cases ->
      for_all_groups cases (fun group a b ->
          same_at_all_jobs Relation.equal (fun () ->
              Join.join_project ~group a b)))

let prop_count_join_jobs =
  Tgen.qtest "count_join identical across jobs" Tgen.joinable_pair_gen
    Tgen.print_relation_pair (fun (a, b) ->
      same_at_all_jobs Count.equal (fun () -> Join.count_join a b))

let prop_join_project_all_jobs =
  Tgen.qtest ~count:100 "join_project_all identical across jobs"
    pair_cases_gen
    print_pair_cases (fun cases ->
      for_all_groups cases (fun group a b ->
          same_at_all_jobs Relation.equal (fun () ->
              Join.join_project_all ~group [ a; b; a ])))

let prop_project_jobs =
  Tgen.qtest "project identical across jobs" Tgen.relation_gen
    Tgen.print_relation (fun r ->
      let targets =
        match Schema.attrs (Relation.schema r) with
        | first :: _ -> Schema.of_list [ first ] :: Tgen.target_variants r
        | [] -> Tgen.target_variants r
      in
      List.for_all
        (fun target ->
          same_at_all_jobs Relation.equal (fun () -> Relation.project target r))
        targets)

(* ------------------------------------------------------------------ *)
(* Determinism of the sensitivity algorithms *)

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

(* A fixed two-atom path query over generated instances: small enough
   for the naive oracle, joined enough to exercise every kernel. *)
let path_cq =
  Cq.make ~name:"qexec"
    [ ("R", [ "A"; "B" ]); ("S", [ "B"; "C" ]) ]

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

let prop_tsens_jobs =
  Tgen.qtest ~count:60 "tsens identical across jobs" path_db_gen print_db
    (fun db ->
      same_at_all_jobs result_equal (fun () ->
          Tsens.local_sensitivity path_cq db))

let prop_naive_jobs =
  Tgen.qtest ~count:25 "naive identical across jobs" path_db_gen print_db
    (fun db ->
      same_at_all_jobs result_equal (fun () ->
          Naive.local_sensitivity path_cq db))

let prop_elastic_jobs =
  Tgen.qtest ~count:60 "elastic identical across jobs" path_db_gen print_db
    (fun db ->
      same_at_all_jobs result_equal (fun () ->
          Elastic.local_sensitivity path_cq db))

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "empty inputs" `Quick test_empty_inputs;
          Alcotest.test_case "map order" `Quick test_map_order;
          Alcotest.test_case "for covers range" `Quick test_for_covers_range;
          Alcotest.test_case "exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "pool survives exception" `Quick
            test_pool_survives_exception;
          Alcotest.test_case "nested calls" `Quick test_nested_calls;
          Alcotest.test_case "with_jobs restores" `Quick
            test_with_jobs_restores;
          Alcotest.test_case "jobs clamped" `Quick test_jobs_clamped;
          Alcotest.test_case "pays_off gating" `Quick test_pays_off_gating;
        ] );
      ( "determinism",
        [
          prop_natural_join_jobs;
          prop_merge_join_jobs;
          prop_join_project_jobs;
          prop_count_join_jobs;
          prop_join_project_all_jobs;
          prop_project_jobs;
        ] );
      ( "sensitivity",
        [ prop_tsens_jobs; prop_naive_jobs; prop_elastic_jobs ] );
    ]
