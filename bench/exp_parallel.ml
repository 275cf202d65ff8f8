(* Jobs sweep over the library's fan-out call sites.

   Runs each site's paper workload at jobs 1 and 2 — today the one
   site is the naive oracle's probes, on Section 7.2's q1 run — checks
   that jobs=2 returns exactly the jobs=1 result, witnesses included,
   and writes BENCH_parallel.json with the wall clocks. A site is kept
   in the library only while its row reaches 1.0x at jobs=2; the JSON
   records host_cores because the speedup is bounded by the cores. *)

open Tsens_sensitivity
open Tsens_workload

let job_counts = [ 1; 2 ]

(* Best-of-N wall clock: parallel benches are noisy and we want the
   steady-state cost, not scheduler warm-up. *)
let best_seconds ~repeats f =
  let best = ref infinity in
  for _ = 1 to repeats do
    let _, s = Bench_util.time f in
    if s < !best then best := s
  done;
  !best

type sweep = {
  bench_name : string;
  times : (int * float) list; (* jobs, best seconds *)
  identical : bool; (* every job count matched jobs=1 *)
}

let sweep ~repeats name f =
  let reference = Exec.with_jobs 1 f in
  let times =
    List.map
      (fun j -> (j, Exec.with_jobs j (fun () -> best_seconds ~repeats f)))
      job_counts
  in
  (* Results are plain data (counts, schemas, tuples): structural
     equality is exact. *)
  let identical =
    List.for_all (fun j -> reference = Exec.with_jobs j f) job_counts
  in
  { bench_name = name; times; identical }

let speedup times j =
  let t1 = List.assoc 1 times and tj = List.assoc j times in
  if tj > 0.0 then t1 /. tj else 1.0

let json_of_sweep { bench_name; times; identical } =
  let entries =
    List.map
      (fun (j, s) ->
        Printf.sprintf
          "{\"jobs\":%d,\"seconds\":%.9f,\"speedup_vs_jobs1\":%.3f}" j s
          (speedup times j))
      times
  in
  Printf.sprintf
    "{\"name\":%S,\"identical_to_jobs1\":%b,\"runs\":[%s]}" bench_name
    identical
    (String.concat "," entries)

let run ~seed ~scale ~repeats ~out =
  Bench_util.print_heading "parallel: jobs sweep";
  let db = Tpch.generate ~seed ~scale () in
  let sweeps =
    [
      sweep ~repeats "naive/q1" (fun () ->
          Naive.local_sensitivity ~max_candidates:2_000_000 Queries.q1 db);
    ]
  in
  Bench_util.print_table
    ~columns:[ "bench"; "jobs"; "seconds"; "speedup"; "identical" ]
    (List.concat_map
       (fun s ->
         List.map
           (fun (j, sec) ->
             [
               s.bench_name;
               string_of_int j;
               Bench_util.seconds_to_string sec;
               Printf.sprintf "%.2fx" (speedup s.times j);
               string_of_bool s.identical;
             ])
           s.times)
       sweeps);
  let json =
    Printf.sprintf "{\"host_cores\":%d,\"scale\":%f,\"benchmarks\":[%s]}"
      (Domain.recommended_domain_count ())
      scale
      (String.concat "," (List.map json_of_sweep sweeps))
  in
  Out_channel.with_open_text out (fun oc ->
      output_string oc json;
      output_char oc '\n');
  Printf.printf "wrote %s\n%!" out;
  if not (List.for_all (fun s -> s.identical) sweeps) then
    failwith "parallel bench: results differ across job counts"
