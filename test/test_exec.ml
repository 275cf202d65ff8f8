(* The execution layer: region unit tests, kernel safety on fan-out
   domains, and the determinism property of the fan-out call sites —
   TSens, the naive oracle and Elastic return results bit-identical to
   jobs=1 at any job count. *)

open Tsens_relational
open Tsens_query
open Tsens_sensitivity

(* [f] produces the same value at jobs 2 and 4 as at jobs 1. *)
let same_at_all_jobs equal f =
  let reference = Exec.with_jobs 1 f in
  List.for_all (fun j -> equal reference (Exec.with_jobs j f)) [ 2; 4 ]

(* [f] run as each of [j] items of a region at jobs [j] ∈ {2, 4}, so
   copies run at once on [j] domains, gives what it gives alone at
   jobs 1: the kernels the fan-outs call are safe to run on any
   domain. *)
let same_on_region_domains equal f =
  let reference = Exec.with_jobs 1 f in
  List.for_all
    (fun j ->
      Exec.with_jobs j (fun () ->
          Array.for_all (equal reference)
            (Exec.parallel_map (fun () -> f ()) (Array.make j ()))))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Region units *)

let test_empty_inputs () =
  Exec.with_jobs 4 @@ fun () ->
  Alcotest.(check (array int)) "map on empty" [||] (Exec.parallel_map succ [||]);
  Alcotest.(check (list int)) "map on nil" [] (Exec.parallel_map_list succ []);
  Alcotest.(check (list int)) "one item" [ 1 ] (Exec.parallel_map_list succ [ 0 ])

(* Results land in item order, and every item runs exactly once. *)
let test_map_order () =
  Exec.with_jobs 4 @@ fun () ->
  let input = Array.init 1000 Fun.id in
  let runs = Array.init 1000 (fun _ -> Atomic.make 0) in
  let got =
    Exec.parallel_map
      (fun i ->
        Atomic.incr runs.(i);
        succ i)
      input
  in
  Alcotest.(check (array int))
    "parallel map matches sequential" (Array.map succ input) got;
  Alcotest.(check bool) "each item exactly once" true
    (Array.for_all (fun r -> Atomic.get r = 1) runs)

(* The failure re-raised is the first in item order, whichever domain
   ran it, with the backtrace of the raise. *)
let test_exception_propagates () =
  Exec.with_jobs 2 @@ fun () ->
  let saved = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect ~finally:(fun () -> Printexc.record_backtrace saved)
  @@ fun () ->
  match
    Exec.parallel_map
      (fun i -> if i mod 37 = 36 then failwith (string_of_int i) else i)
      (Array.init 100 Fun.id)
  with
  | exception Failure m ->
      let bt = Printexc.get_raw_backtrace () in
      Alcotest.(check string) "first failing item" "36" m;
      Alcotest.(check bool) "backtrace kept" true
        (Printexc.raw_backtrace_length bt > 0)
  | _ -> Alcotest.fail "expected Failure"

(* A failing region joins its domains like any other: the next region
   runs normally. *)
let test_pool_survives_exception () =
  Exec.with_jobs 2 @@ fun () ->
  (try
     ignore
       (Exec.parallel_map
          (fun i -> if i mod 10 = 3 then failwith "boom" else i)
          (Array.init 100 Fun.id))
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
        (* Runs inside a region item: must run sequentially in this
           domain instead of spawning a region of its own. *)
        Array.fold_left ( + ) 0
          (Exec.parallel_map (fun j -> i * j) (Array.init 20 Fun.id)))
      (Array.init 20 Fun.id)
  in
  Alcotest.(check (array int)) "nested map correct" expected got;
  Alcotest.(check (array int)) "top-level map after nesting"
    [| 1; 2 |] (Exec.parallel_map succ [| 0; 1 |])

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

(* One job unless TSENS_JOBS says otherwise. OCaml cannot unset a
   variable, so the cases below set it and an empty value stands for
   unset afterwards (it parses as no number, which means 1). *)
let test_default_jobs () =
  let saved = Sys.getenv_opt "TSENS_JOBS" in
  if saved = None then
    Alcotest.(check int) "unset means one job" 1 (Exec.default_jobs ());
  Fun.protect ~finally:(fun () ->
      Unix.putenv "TSENS_JOBS" (Option.value saved ~default:""))
  @@ fun () ->
  List.iter
    (fun (value, expected) ->
      Unix.putenv "TSENS_JOBS" value;
      Alcotest.(check int) (Printf.sprintf "TSENS_JOBS=%S" value) expected
        (Exec.default_jobs ()))
    [ ("", 1); ("3", 3); (" 2 ", 2); ("0", 1); ("-4", 1); ("many", 1); ("1000", 64) ]

(* ------------------------------------------------------------------ *)
(* The relational kernels on fan-out domains *)

(* Cases go to the regions in batches of 20, so a case costs a twentieth
   of a region's domain spawns. *)
let batch_size = 20

let on_region_domains ~count name gen print equal f =
  Tgen.qtest ~count name
    QCheck2.Gen.(list_repeat batch_size gen)
    (fun cases -> String.concat "\n" (List.map print cases))
    (fun cases ->
      same_on_region_domains (List.equal equal) (fun () -> List.map f cases))

let prop_natural_join_jobs =
  on_region_domains ~count:10 "natural_join identical across jobs"
    Tgen.joinable_pair_gen Tgen.print_relation_pair Relation.equal
    (fun (a, b) -> Join.natural_join a b)

let prop_merge_join_jobs =
  on_region_domains ~count:10 "merge_join identical across jobs"
    Tgen.joinable_pair_gen Tgen.print_relation_pair Relation.equal
    (fun (a, b) -> Join.merge_join a b)

(* The group shapes of test_relation's reference property (permuted,
   one-sided, nullary), on ordinary and saturating counts, with each side
   also emptied. *)
let pair_cases_gen =
  QCheck2.Gen.(
    oneof [ Tgen.joinable_pair_gen; Tgen.saturating_pair_gen ] >>= fun (a, b) ->
    let empty r = Relation.empty (Relation.schema r) in
    return [ (a, b); (empty a, b); (a, empty b) ])

let print_pair_cases cases = Tgen.print_relation_pair (List.hd cases)

(* Every group variant of every pair, as one list. *)
let over_groups cases f =
  List.concat_map
    (fun (a, b) -> List.map (fun group -> f group a b) (Tgen.group_variants a b))
    cases

let relations_equal = List.equal Relation.equal

let prop_join_project_jobs =
  on_region_domains ~count:5 "join_project identical across jobs"
    pair_cases_gen print_pair_cases relations_equal (fun cases ->
      over_groups cases (fun group a b -> Join.join_project ~group a b))

let prop_count_join_jobs =
  on_region_domains ~count:10 "count_join identical across jobs"
    Tgen.joinable_pair_gen Tgen.print_relation_pair Count.equal
    (fun (a, b) -> Join.count_join a b)

let prop_join_project_all_jobs =
  on_region_domains ~count:5 "join_project_all identical across jobs"
    pair_cases_gen print_pair_cases relations_equal (fun cases ->
      over_groups cases (fun group a b ->
          Join.join_project_all ~group [ a; b; a ]))

let prop_project_jobs =
  on_region_domains ~count:10 "project identical across jobs"
    Tgen.relation_gen Tgen.print_relation relations_equal (fun r ->
      let targets =
        match Schema.attrs (Relation.schema r) with
        | first :: _ -> Schema.of_list [ first ] :: Tgen.target_variants r
        | [] -> Tgen.target_variants r
      in
      List.map (fun target -> Relation.project target r) targets)

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

(* The whole analysis, witnesses included. *)
let prop_tsens_jobs =
  Tgen.qtest ~count:60 "tsens identical across jobs" path_db_gen print_db
    (fun db ->
      same_at_all_jobs result_equal (fun () ->
          Tsens.result (Tsens.analyze path_cq db)))

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
          Alcotest.test_case "exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "pool survives exception" `Quick
            test_pool_survives_exception;
          Alcotest.test_case "nested calls" `Quick test_nested_calls;
          Alcotest.test_case "with_jobs restores" `Quick
            test_with_jobs_restores;
          Alcotest.test_case "jobs clamped" `Quick test_jobs_clamped;
          Alcotest.test_case "default is one job" `Quick test_default_jobs;
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
