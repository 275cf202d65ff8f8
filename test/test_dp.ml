(* Tests for the differential privacy layer: Laplace, SVT, the TSens
   truncation operator and its global-sensitivity guarantee, TSensDP and
   the PrivSQL baseline. *)

open Tsens_relational
open Tsens_query
open Tsens_sensitivity
open Tsens_dp

let s = Value.str
let tup l = Tuple.of_list l
let schema l = Schema.of_list l

(* Figure 3 fixture (shared with test_sensitivity). *)
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

(* ------------------------------------------------------------------ *)
(* Laplace *)

let test_laplace_statistics () =
  let rng = Prng.create 5 in
  let n = 20_000 in
  let samples = List.init n (fun _ -> Laplace.sample rng ~scale:2.0) in
  let mean = List.fold_left ( +. ) 0.0 samples /. float_of_int n in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.1);
  let var =
    List.fold_left (fun acc x -> acc +. (x *. x)) 0.0 samples /. float_of_int n
  in
  (* Lap(2) has variance 8. *)
  Alcotest.(check bool) "variance near 8" true (Float.abs (var -. 8.0) < 1.0);
  Alcotest.(check (float 1e-9)) "variance formula" 8.0
    (Laplace.variance ~epsilon:1.0 ~sensitivity:2.0)

let test_laplace_mechanism_edges () =
  let rng = Prng.create 1 in
  Alcotest.(check (float 0.0)) "zero sensitivity is exact" 42.0
    (Laplace.mechanism rng ~epsilon:1.0 ~sensitivity:0.0 42.0);
  Alcotest.check_raises "bad epsilon"
    (Invalid_argument "Laplace.mechanism: non-positive epsilon") (fun () ->
      ignore (Laplace.mechanism rng ~epsilon:0.0 ~sensitivity:1.0 0.0));
  Alcotest.check_raises "bad scale"
    (Invalid_argument "Laplace.sample: non-positive scale") (fun () ->
      ignore (Laplace.sample rng ~scale:0.0))

let test_laplace_deterministic () =
  let a = Prng.create 9 and b = Prng.create 9 in
  let xa = List.init 10 (fun _ -> Laplace.sample a ~scale:1.0) in
  let xb = List.init 10 (fun _ -> Laplace.sample b ~scale:1.0) in
  Alcotest.(check (list (float 0.0))) "same seed same noise" xa xb

(* ------------------------------------------------------------------ *)
(* SVT *)

let test_svt_finds_crossing () =
  (* With a huge budget the noise is negligible: the first query above
     the threshold is reported exactly. *)
  let rng = Prng.create 3 in
  let queries i = float_of_int i -. 4.5 in
  Alcotest.(check (option int))
    "crossing at 5" (Some 5)
    (Svt.above_threshold rng ~epsilon:1e9 ~sensitivity:1.0 ~threshold:0.0
       ~queries ~count:10);
  Alcotest.(check (option int))
    "no crossing" None
    (Svt.above_threshold rng ~epsilon:1e9 ~sensitivity:1.0 ~threshold:1e12
       ~queries ~count:10);
  Alcotest.(check (option int))
    "empty stream" None
    (Svt.above_threshold rng ~epsilon:1.0 ~sensitivity:1.0 ~threshold:0.0
       ~queries ~count:0)

let test_svt_validation () =
  let rng = Prng.create 3 in
  Alcotest.check_raises "bad epsilon"
    (Invalid_argument "Svt.above_threshold: non-positive epsilon") (fun () ->
      ignore
        (Svt.above_threshold rng ~epsilon:0.0 ~sensitivity:1.0 ~threshold:0.0
           ~queries:(fun _ -> 0.0) ~count:1))

(* ------------------------------------------------------------------ *)
(* Truncation *)

let test_truncation_profile_fig3 () =
  (* R2's tuples: (b1,c1) δ=6 ×1, (b1,c2) δ=4 ×1, (b2,c1) δ=18 ×2.
     Prefix answers: 0 | 4 | 10 | 46. *)
  let analysis = Tsens.analyze fig3_cq fig3_db in
  let p = Truncation.profile analysis "R2" in
  Alcotest.(check int) "max tuple sensitivity" 18
    (Truncation.max_tuple_sensitivity p);
  let answers = List.map (Truncation.truncated_answer p) [ 0; 3; 4; 5; 6; 17; 18; 100 ] in
  Alcotest.(check (list int)) "prefix answers"
    [ 0; 0; 4; 4; 10; 10; 46; 46 ]
    answers;
  let dropped = List.map (Truncation.tuples_dropped p) [ 0; 4; 6; 18 ] in
  Alcotest.(check (list int)) "dropped mass" [ 4; 3; 2; 0 ] dropped

let test_truncate_database_consistent () =
  let analysis = Tsens.analyze fig3_cq fig3_db in
  let p = Truncation.profile analysis "R2" in
  List.iter
    (fun i ->
      let truncated = Truncation.truncate_database analysis "R2" i fig3_db in
      Alcotest.(check int)
        (Printf.sprintf "threshold %d" i)
        (Truncation.truncated_answer p i)
        (Yannakakis.count fig3_cq truncated))
    [ 0; 1; 4; 5; 6; 7; 17; 18; 50 ]

(* The Definition 6.4 guarantee: adding any private tuple changes the
   truncated answer by at most the threshold. *)
let prop_truncation_global_sensitivity =
  let gen =
    QCheck2.Gen.(
      (* Random small path instance + random candidate tuple + threshold *)
      let rel_gen attrs =
        list_size (int_range 0 5)
          (pair
             (map Tuple.of_list
                (list_repeat 2 (map Value.int (int_range 0 3))))
             (int_range 1 2))
        >>= fun rows ->
        return (Relation.create ~schema:(Schema.of_list attrs) rows)
      in
      rel_gen [ "A"; "B" ] >>= fun r1 ->
      rel_gen [ "B"; "C" ] >>= fun r2 ->
      rel_gen [ "C"; "D" ] >>= fun r3 ->
      pair (map Value.int (int_range 0 3)) (map Value.int (int_range 0 3))
      >>= fun (x, y) ->
      int_range 0 6 >>= fun threshold ->
      return
        ( Database.of_list [ ("R1", r1); ("R2", r2); ("R3", r3) ],
          Tuple.of_list [ x; y ],
          threshold ))
  in
  let cq =
    Cq.make ~name:"p3"
      [ ("R1", [ "A"; "B" ]); ("R2", [ "B"; "C" ]); ("R3", [ "C"; "D" ]) ]
  in
  Tgen.qtest ~count:100 "truncated query has GS tau" gen
    (fun (db, t, i) ->
      Format.asprintf "%a@.tuple %a, threshold %d" Database.pp db Tuple.pp t i)
    (fun (db, t, threshold) ->
      let private_relation = "R2" in
      let answer_on db =
        let analysis = Tsens.analyze cq db in
        let p = Truncation.profile analysis private_relation in
        Truncation.truncated_answer p threshold
      in
      let base = answer_on db in
      let db' =
        Database.update ~name:private_relation (Relation.add t) db
      in
      abs (answer_on db' - base) <= threshold)

(* Linear-scan oracle for the binary-search thresholding: recompute the
   truncated answer and dropped mass directly from per-tuple
   sensitivities, without sorting or prefix sums. *)
let oracle_truncated analysis relation threshold =
  Relation.fold
    (fun t cnt acc ->
      let d = Tsens.tuple_sensitivity analysis relation t in
      if d <= threshold then Count.add acc (Count.mul cnt d) else acc)
    (Tsens.instance_relation analysis relation)
    Count.zero

let oracle_dropped analysis relation threshold =
  Relation.fold
    (fun t cnt acc ->
      let d = Tsens.tuple_sensitivity analysis relation t in
      if d > threshold then Count.add acc cnt else acc)
    (Tsens.instance_relation analysis relation)
    Count.zero

let p3_cq =
  Cq.make ~name:"p3"
    [ ("R1", [ "A"; "B" ]); ("R2", [ "B"; "C" ]); ("R3", [ "C"; "D" ]) ]

let test_truncation_boundaries () =
  (* Duplicate-sensitivity runs: every R2 tuple has δ = 1, so the
     profile is one run of three equal entries. last_kept must land on
     the rightmost entry of the run (a complete prefix), not on the
     first binary-search hit inside it. *)
  let db =
    Database.of_list
      [
        ( "R1",
          Relation.create ~schema:(schema [ "A"; "B" ])
            [ (tup [ s "a"; s "b1" ], 1) ] );
        ( "R2",
          Relation.create ~schema:(schema [ "B"; "C" ])
            [
              (tup [ s "b1"; s "c1" ], 1);
              (tup [ s "b1"; s "c2" ], 1);
              (tup [ s "b1"; s "c3" ], 1);
            ] );
        ( "R3",
          Relation.create ~schema:(schema [ "C"; "D" ])
            [
              (tup [ s "c1"; s "d" ], 1);
              (tup [ s "c2"; s "d" ], 1);
              (tup [ s "c3"; s "d" ], 1);
            ] );
      ]
  in
  let analysis = Tsens.analyze p3_cq db in
  let p = Truncation.profile analysis "R2" in
  Alcotest.(check int) "all-exceed: nothing kept" (-1) (Truncation.last_kept p 0);
  Alcotest.(check int) "all-exceed: answer 0" 0 (Truncation.truncated_answer p 0);
  Alcotest.(check int) "all-exceed: everything dropped" 3
    (Truncation.tuples_dropped p 0);
  Alcotest.(check int) "run end, not first hit" 2 (Truncation.last_kept p 1);
  Alcotest.(check int) "complete prefix over the run" 3
    (Truncation.truncated_answer p 1);
  Alcotest.(check int) "past the maximum" 2 (Truncation.last_kept p 100);
  (* Tuples with δ = 0 (no join partner) are kept even at threshold 0
     but contribute nothing. *)
  let db0 =
    Database.update ~name:"R2" (Relation.add (tup [ s "zz"; s "zz" ])) db
  in
  let a0 = Tsens.analyze p3_cq db0 in
  let p0 = Truncation.profile a0 "R2" in
  Alcotest.(check int) "zero-δ entry kept at 0" 0 (Truncation.last_kept p0 0);
  Alcotest.(check int) "zero-δ contributes nothing" 0
    (Truncation.truncated_answer p0 0);
  Alcotest.(check int) "zero-δ not dropped" 3 (Truncation.tuples_dropped p0 0)

let test_truncation_empty_profile () =
  let db =
    Database.of_list
      [
        ( "R1",
          Relation.create ~schema:(schema [ "A"; "B" ])
            [ (tup [ s "a"; s "b" ], 1) ] );
        ("R2", Relation.empty (schema [ "B"; "C" ]));
        ( "R3",
          Relation.create ~schema:(schema [ "C"; "D" ])
            [ (tup [ s "c"; s "d" ], 1) ] );
      ]
  in
  let p = Truncation.profile (Tsens.analyze p3_cq db) "R2" in
  List.iter
    (fun i ->
      Alcotest.(check int) "empty: last_kept" (-1) (Truncation.last_kept p i);
      Alcotest.(check int) "empty: answer" 0 (Truncation.truncated_answer p i);
      Alcotest.(check int) "empty: dropped" 0 (Truncation.tuples_dropped p i))
    [ 0; 1; 7 ]

(* Every threshold from 0 past the maximum sensitivity, on random
   instances, against the linear oracle. Exercises exact-match,
   between-runs, below-minimum and above-maximum thresholds (many of
   the random instances have duplicate-δ runs by construction: values
   are drawn from a 4-element domain). *)
let prop_truncation_matches_oracle =
  let gen =
    QCheck2.Gen.(
      let rel_gen attrs =
        list_size (int_range 0 6)
          (pair
             (map Tuple.of_list (list_repeat 2 (map Value.int (int_range 0 3))))
             (int_range 1 3))
        >>= fun rows ->
        return (Relation.create ~schema:(Schema.of_list attrs) rows)
      in
      rel_gen [ "A"; "B" ] >>= fun r1 ->
      rel_gen [ "B"; "C" ] >>= fun r2 ->
      rel_gen [ "C"; "D" ] >>= fun r3 ->
      return (Database.of_list [ ("R1", r1); ("R2", r2); ("R3", r3) ]))
  in
  Tgen.qtest ~count:150 "truncation matches linear oracle" gen
    (Format.asprintf "%a" Database.pp)
    (fun db ->
      let analysis = Tsens.analyze p3_cq db in
      let p = Truncation.profile analysis "R2" in
      let top = Truncation.max_tuple_sensitivity p + 2 in
      let ok = ref true in
      for i = 0 to top do
        if
          Truncation.truncated_answer p i <> oracle_truncated analysis "R2" i
          || Truncation.tuples_dropped p i <> oracle_dropped analysis "R2" i
        then ok := false
      done;
      !ok)

let test_truncate_database_preserves_column_order () =
  (* The stored column order of R2 is (C, B) — the reverse of the atom
     order the DP probes in. truncate_database must hand back the
     relation in its stored order, or every later consumer of the
     database reads transposed columns. *)
  let r2_swapped =
    Relation.create ~schema:(schema [ "C"; "B" ])
      [
        (tup [ s "c1"; s "b1" ], 1);
        (tup [ s "c2"; s "b1" ], 1);
        (tup [ s "c1"; s "b2" ], 2);
      ]
  in
  let db = Database.update ~name:"R2" (fun _ -> r2_swapped) fig3_db in
  let analysis = Tsens.analyze fig3_cq db in
  let p = Truncation.profile analysis "R2" in
  List.iter
    (fun i ->
      let truncated = Truncation.truncate_database analysis "R2" i db in
      let r2' = Database.find "R2" truncated in
      Alcotest.(check bool)
        (Printf.sprintf "threshold %d keeps stored schema" i)
        true
        (Schema.equal (Relation.schema r2_swapped) (Relation.schema r2'));
      Alcotest.(check int)
        (Printf.sprintf "threshold %d count agrees" i)
        (Truncation.truncated_answer p i)
        (Yannakakis.count fig3_cq truncated))
    [ 0; 4; 6; 18; 50 ]

(* ------------------------------------------------------------------ *)
(* Saturation reporting *)

(* A path-4 instance whose counts multiply past Count.max_count: every
   per-tuple sensitivity and the true answer saturate. The report must
   carry the saturated flag and render "overflow", never the raw
   max_int. *)
let saturated_db =
  let big = 1 lsl 31 in
  Database.of_list
    [
      ( "R1",
        Relation.create ~schema:(schema [ "A"; "B" ])
          [ (tup [ s "a"; s "b" ], big) ] );
      ( "R2",
        Relation.create ~schema:(schema [ "B"; "C" ])
          [ (tup [ s "b"; s "c" ], 1) ] );
      ( "R3",
        Relation.create ~schema:(schema [ "C"; "D" ])
          [ (tup [ s "c"; s "d" ], big) ] );
      ( "R4",
        Relation.create ~schema:(schema [ "D"; "E" ])
          [ (tup [ s "d"; s "e" ], big) ] );
    ]

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_saturated_report () =
  let analysis = Tsens.analyze fig3_cq saturated_db in
  Alcotest.(check bool) "output size saturates" true
    (Count.is_saturated (Tsens.output_size analysis));
  let rng = Prng.create 11 in
  let config = Mechanism.default_config ~ell:4 ~private_relation:"R2" in
  let report = Mechanism.run_with_analysis rng config analysis in
  Alcotest.(check bool) "report flagged" true report.Report.saturated;
  Alcotest.(check string) "true answer renders as overflow" "overflow"
    (Report.value_to_string report.Report.true_answer);
  let rendered = Format.asprintf "%a" Report.pp report in
  Alcotest.(check bool) "pp prints overflow" true
    (contains ~needle:"overflow" rendered);
  Alcotest.(check bool) "pp prints the marker" true
    (contains ~needle:"[saturated]" rendered);
  Alcotest.(check bool) "raw max_int never leaks" false
    (contains ~needle:(string_of_int max_int) rendered);
  let summary = Metrics.summarize [ { Metrics.report; seconds = 0.1 } ] in
  Alcotest.(check int) "summary counts the trial" 1 summary.Metrics.saturated_runs;
  let srendered = Format.asprintf "%a" Metrics.pp_summary summary in
  Alcotest.(check bool) "summary pp flags saturation" true
    (contains ~needle:"saturated" srendered);
  Alcotest.(check bool) "summary never leaks max_int" false
    (contains ~needle:(string_of_int max_int) srendered)

let test_unsaturated_report_unflagged () =
  let rng = Prng.create 12 in
  let config = Mechanism.default_config ~ell:18 ~private_relation:"R2" in
  let report = Mechanism.run rng config fig3_cq fig3_db in
  Alcotest.(check bool) "ordinary run unflagged" false report.Report.saturated;
  let rendered = Format.asprintf "%a" Report.pp report in
  Alcotest.(check bool) "no marker" false
    (contains ~needle:"[saturated]" rendered)

(* ------------------------------------------------------------------ *)
(* TSensDP *)

let test_tsens_dp_low_noise () =
  (* With a huge budget: τ converges to the largest in-instance tuple
     sensitivity (18), the truncated answer is exact and the noise is
     negligible. *)
  let rng = Prng.create 17 in
  let config =
    {
      Mechanism.epsilon = 1e9;
      threshold_fraction = 0.5;
      ell = 25;
      private_relation = "R2";
    }
  in
  let report = Mechanism.run rng config fig3_cq fig3_db in
  Alcotest.(check int) "tau" 18 report.Report.threshold;
  Alcotest.(check (float 1e-3)) "true answer" 46.0 report.Report.true_answer;
  Alcotest.(check (float 1e-3)) "no bias" 46.0 report.Report.truncated_answer;
  Alcotest.(check bool) "tiny error" true (Report.relative_error report < 1e-3)

let test_tsens_dp_budget_accounting () =
  let rng = Prng.create 4 in
  let config =
    {
      Mechanism.epsilon = 2.0;
      threshold_fraction = 0.25;
      ell = 20;
      private_relation = "R2";
    }
  in
  let report = Mechanism.run rng config fig3_cq fig3_db in
  Alcotest.(check (float 1e-9)) "epsilon" 2.0 report.Report.epsilon;
  Alcotest.(check (float 1e-9)) "threshold share" 0.5
    report.Report.epsilon_threshold;
  Alcotest.(check bool) "tau within [1, ell]" true
    (report.Report.threshold >= 1 && report.Report.threshold <= 20)

let test_tsens_dp_deterministic () =
  let config = Mechanism.default_config ~ell:25 ~private_relation:"R2" in
  let r1 = Mechanism.run (Prng.create 8) config fig3_cq fig3_db in
  let r2 = Mechanism.run (Prng.create 8) config fig3_cq fig3_db in
  Alcotest.(check (float 0.0))
    "same seed same release" r1.Report.noisy_answer r2.Report.noisy_answer

let test_tsens_dp_validation () =
  let rng = Prng.create 1 in
  let base = Mechanism.default_config ~ell:10 ~private_relation:"R2" in
  Alcotest.check_raises "epsilon" (Invalid_argument "TsensDp: non-positive epsilon")
    (fun () ->
      ignore (Mechanism.run rng { base with epsilon = 0.0 } fig3_cq fig3_db));
  Alcotest.check_raises "fraction"
    (Invalid_argument "TsensDp: threshold_fraction must be in (0, 1)")
    (fun () ->
      ignore
        (Mechanism.run rng { base with threshold_fraction = 1.0 } fig3_cq
           fig3_db));
  Alcotest.check_raises "ell" (Invalid_argument "TsensDp: ell must be at least 1")
    (fun () -> ignore (Mechanism.run rng { base with ell = 0 } fig3_cq fig3_db))

let test_tsens_dp_median_error_reasonable () =
  (* 30 trials at ε = 20 on the tiny Figure 3 instance (|Q| = 46, LS =
     21: the noise scale is a large fraction of the answer at small ε, so
     a moderate budget is needed for a stable assertion). *)
  let rng = Prng.create 99 in
  let config =
    { (Mechanism.default_config ~ell:25 ~private_relation:"R2") with epsilon = 20.0 }
  in
  let analysis = Tsens.analyze fig3_cq fig3_db in
  let trials =
    List.init 30 (fun _ ->
        let report, seconds =
          Metrics.time (fun () -> Mechanism.run_with_analysis rng config analysis)
        in
        { Metrics.report; seconds })
  in
  let summary = Metrics.summarize trials in
  Alcotest.(check bool) "median error < 30%" true
    (summary.Metrics.median_error < 0.3);
  Alcotest.(check int) "30 runs" 30 summary.Metrics.runs

(* ------------------------------------------------------------------ *)
(* PrivSQL baseline *)

let test_privsql_no_cascade () =
  (* No foreign keys: no truncation, zero bias, elastic-style GS. *)
  let rng = Prng.create 21 in
  let config =
    Privsql.default_config ~ell:30 ~private_relation:"R2" ~cascade:[]
  in
  let config = { config with Privsql.epsilon = 1e9 } in
  let report = Privsql.run rng config fig3_cq fig3_db in
  Alcotest.(check (float 1e-9)) "zero bias" 46.0 report.Report.truncated_answer;
  let elastic = Elastic.local_sensitivity fig3_cq fig3_db in
  let expected =
    float_of_int (List.assoc "R2" elastic.Sens_types.per_relation)
  in
  Alcotest.(check (float 1e-9)) "elastic GS" expected
    report.Report.global_sensitivity;
  Alcotest.(check bool) "GS looser than TSens tau" true
    (report.Report.global_sensitivity >= 18.0)

let test_privsql_cascade_truncates () =
  (* Force a frequency cap of 1: both B-keys of R2 have bag frequency 2,
     so everything is truncated — the over-truncation failure mode the
     paper observes for PrivSQL on q2. *)
  let rng = Prng.create 22 in
  let config =
    {
      (Privsql.default_config ~ell:1 ~private_relation:"R1"
         ~cascade:[ ("R2", "B") ])
      with
      Privsql.epsilon = 1e9;
    }
  in
  let report = Privsql.run rng config fig3_cq fig3_db in
  Alcotest.(check (float 1e-9)) "everything truncated" 0.0
    report.Report.truncated_answer;
  Alcotest.(check (float 1e-9)) "bias is total" 1.0
    (Report.relative_bias report);
  (* With room for the real frequencies the cap is learned exactly and
     nothing is dropped. *)
  let config2 = { config with Privsql.ell = 5 } in
  let report2 = Privsql.run rng config2 fig3_cq fig3_db in
  Alcotest.(check (float 1e-9)) "cap 2 keeps all" 46.0
    report2.Report.truncated_answer;
  Alcotest.(check int) "learned cap" 2 report2.Report.threshold

let test_privsql_cascade_validation () =
  let rng = Prng.create 2 in
  let config =
    Privsql.default_config ~ell:5 ~private_relation:"R1"
      ~cascade:[ ("R2", "Z") ]
  in
  Alcotest.check_raises "unknown cascade attr"
    (Errors.Schema_error "Privsql: R2 has no attribute Z") (fun () ->
      ignore (Privsql.run rng config fig3_cq fig3_db))

(* ------------------------------------------------------------------ *)
(* Empirical ε-indistinguishability *)

(* Histogram of mechanism outputs over many runs. *)
let histogram ~bin_width ~runs mech =
  let table = Hashtbl.create 64 in
  for _ = 1 to runs do
    let x = mech () in
    let bin = int_of_float (Float.floor (x /. bin_width)) in
    Hashtbl.replace table bin
      (1 + Option.value ~default:0 (Hashtbl.find_opt table bin))
  done;
  table

(* max over sufficiently-populated bins of |ln (p_bin / p'_bin)|. *)
let max_log_ratio ~min_count h1 h2 =
  let ratio = ref 0.0 in
  Hashtbl.iter
    (fun bin c1 ->
      match Hashtbl.find_opt h2 bin with
      | Some c2 when c1 >= min_count && c2 >= min_count ->
          ratio :=
            Float.max !ratio
              (Float.abs (log (float_of_int c1 /. float_of_int c2)))
      | _ -> ())
    h1;
  !ratio

let test_laplace_indistinguishability () =
  (* Lap(1/eps) on adjacent answers x and x+1 must have likelihood ratios
     bounded by e^eps everywhere. *)
  let epsilon = 0.5 in
  let rng = Prng.create 31 in
  let mech x () = Laplace.mechanism rng ~epsilon ~sensitivity:1.0 x in
  let runs = 60_000 in
  let h0 = histogram ~bin_width:0.5 ~runs (mech 10.0) in
  let h1 = histogram ~bin_width:0.5 ~runs (mech 11.0) in
  let worst = max_log_ratio ~min_count:300 h0 h1 in
  Alcotest.(check bool)
    (Printf.sprintf "log ratio %.3f within eps + sampling slack" worst)
    true
    (worst <= epsilon +. 0.25)

let test_tsens_dp_indistinguishability () =
  (* End-to-end: the whole TSensDP pipeline (Q-hat release + SVT + final
     Laplace) on two neighbouring databases — D and D minus one private
     tuple — must keep empirical output likelihood ratios within e^eps,
     up to sampling slack. Catches budget double-spending and missing
     noise scalings. *)
  let epsilon = 0.7 in
  let config =
    {
      (Mechanism.default_config ~ell:20 ~private_relation:"R2") with
      Mechanism.epsilon;
    }
  in
  let neighbour_db =
    Database.update ~name:"R2"
      (Relation.remove (tup [ s "b2"; s "c1" ]))
      fig3_db
  in
  let runs = 40_000 in
  let run_on db seed =
    let analysis = Tsens.analyze fig3_cq db in
    let rng = Prng.create seed in
    histogram ~bin_width:8.0 ~runs (fun () ->
        Report.released (Mechanism.run_with_analysis rng config analysis))
  in
  let h = run_on fig3_db 101 in
  let h' = run_on neighbour_db 102 in
  let worst = max_log_ratio ~min_count:400 h h' in
  Alcotest.(check bool)
    (Printf.sprintf "log ratio %.3f within eps + sampling slack" worst)
    true
    (worst <= epsilon +. 0.3)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_median_mean () =
  Alcotest.(check (float 1e-9)) "median odd" 2.0 (Metrics.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "median even takes lower" 2.0
    (Metrics.median [ 4.0; 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Metrics.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.check_raises "empty median"
    (Invalid_argument "Metrics.median: empty list") (fun () ->
      ignore (Metrics.median []))

let () =
  Alcotest.run "dp"
    [
      ( "laplace",
        [
          Alcotest.test_case "statistics" `Quick test_laplace_statistics;
          Alcotest.test_case "mechanism edges" `Quick
            test_laplace_mechanism_edges;
          Alcotest.test_case "deterministic" `Quick test_laplace_deterministic;
        ] );
      ( "svt",
        [
          Alcotest.test_case "finds crossing" `Quick test_svt_finds_crossing;
          Alcotest.test_case "validation" `Quick test_svt_validation;
        ] );
      ( "truncation",
        [
          Alcotest.test_case "profile fig3" `Quick test_truncation_profile_fig3;
          Alcotest.test_case "boundaries" `Quick test_truncation_boundaries;
          Alcotest.test_case "empty profile" `Quick
            test_truncation_empty_profile;
          prop_truncation_matches_oracle;
          Alcotest.test_case "column order preserved" `Quick
            test_truncate_database_preserves_column_order;
          Alcotest.test_case "database consistency" `Quick
            test_truncate_database_consistent;
          prop_truncation_global_sensitivity;
        ] );
      ( "tsens_dp",
        [
          Alcotest.test_case "low noise regime" `Quick test_tsens_dp_low_noise;
          Alcotest.test_case "budget accounting" `Quick
            test_tsens_dp_budget_accounting;
          Alcotest.test_case "deterministic" `Quick test_tsens_dp_deterministic;
          Alcotest.test_case "validation" `Quick test_tsens_dp_validation;
          Alcotest.test_case "median error" `Quick
            test_tsens_dp_median_error_reasonable;
        ] );
      ( "indistinguishability",
        [
          Alcotest.test_case "laplace mechanism" `Slow
            test_laplace_indistinguishability;
          Alcotest.test_case "tsens dp end to end" `Slow
            test_tsens_dp_indistinguishability;
        ] );
      ( "privsql",
        [
          Alcotest.test_case "no cascade" `Quick test_privsql_no_cascade;
          Alcotest.test_case "cascade truncates" `Quick
            test_privsql_cascade_truncates;
          Alcotest.test_case "cascade validation" `Quick
            test_privsql_cascade_validation;
        ] );
      ("metrics", [ Alcotest.test_case "median/mean" `Quick test_metrics_median_mean ]);
      ( "saturation",
        [
          Alcotest.test_case "saturated report" `Quick test_saturated_report;
          Alcotest.test_case "unsaturated report" `Quick
            test_unsaturated_report_unflagged;
        ] );
    ]
