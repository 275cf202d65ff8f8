(* Row vs columnar join-kernel benchmark.

   Times the three binary kernels (count_join, natural_join,
   join_project) over a synthetic two-relation join at 10k and 100k rows
   per side, once per storage engine, checks the engines return
   bit-identical results, and writes BENCH_join.json. Rows/sec is
   (|R| + |S|) / seconds — the input volume a kernel consumes, which is
   comparable across kernels that materialize different amounts of
   output. host_cores is recorded because absolute numbers depend on
   the machine.

   The data is a bowtie join: R(A,B) with A unique and B = i mod (n/2),
   S(B,C) with C unique and the same B distribution — every key matches,
   average fanout 2 per side, output about 2n rows. This keeps the probe
   loop (not allocation of a huge result) the measured cost. *)

open Tsens_relational

let sizes = [ 10_000; 100_000 ]

let best_seconds ~repeats f =
  let best = ref infinity in
  for _ = 1 to repeats do
    let _, s = Bench_util.time f in
    if s < !best then best := s
  done;
  !best

let synth n =
  let keys = max 1 (n / 2) in
  let r =
    Relation.create
      ~schema:(Schema.of_attrs [ "A"; "B" ])
      (List.init n (fun i ->
           (Tuple.of_list [ Value.Int i; Value.Int (i mod keys) ], 1)))
  in
  let s =
    Relation.create
      ~schema:(Schema.of_attrs [ "B"; "C" ])
      (List.init n (fun j ->
           (Tuple.of_list [ Value.Int (j mod keys); Value.Int j ], 1)))
  in
  (r, s)

type measurement = {
  kernel : string;
  nrows : int; (* per side *)
  row_seconds : float;
  col_seconds : float;
  identical : bool;
}

let rows_per_sec n s = if s > 0.0 then float_of_int (2 * n) /. s else 0.0
let speedup m = if m.col_seconds > 0.0 then m.row_seconds /. m.col_seconds else 1.0

let measure ~repeats ~equal kernel nrows f =
  let timed mode = Storage.with_mode mode (fun () -> best_seconds ~repeats f) in
  let row_seconds = timed Storage.Row in
  let col_seconds = timed Storage.Columnar in
  let identical =
    equal
      (Storage.with_mode Storage.Row f)
      (Storage.with_mode Storage.Columnar f)
  in
  { kernel; nrows; row_seconds; col_seconds; identical }

let json_of_measurement m =
  Printf.sprintf
    "{\"kernel\":%S,\"rows_per_side\":%d,\"row_seconds\":%.9f,\
     \"columnar_seconds\":%.9f,\"row_rows_per_sec\":%.1f,\
     \"columnar_rows_per_sec\":%.1f,\"columnar_speedup\":%.3f,\
     \"identical\":%b}"
    m.kernel m.nrows m.row_seconds m.col_seconds
    (rows_per_sec m.nrows m.row_seconds)
    (rows_per_sec m.nrows m.col_seconds)
    (speedup m) m.identical

let run ~repeats ~out =
  Bench_util.print_heading "join: row vs columnar storage";
  let group = Schema.of_attrs [ "A" ] in
  let measurements =
    List.concat_map
      (fun n ->
        let a, b = synth n in
        [
          measure ~repeats ~equal:Count.equal "count_join" n (fun () ->
              Join.count_join a b);
          measure ~repeats ~equal:Relation.equal "natural_join" n (fun () ->
              Join.natural_join a b);
          measure ~repeats ~equal:Relation.equal "join_project" n (fun () ->
              Join.join_project ~group a b);
        ])
      sizes
  in
  Bench_util.print_table
    ~columns:[ "kernel"; "rows/side"; "row"; "columnar"; "speedup"; "identical" ]
    (List.map
       (fun m ->
         [
           m.kernel;
           string_of_int m.nrows;
           Bench_util.seconds_to_string m.row_seconds;
           Bench_util.seconds_to_string m.col_seconds;
           Printf.sprintf "%.2fx" (speedup m);
           string_of_bool m.identical;
         ])
       measurements);
  let json =
    Printf.sprintf "{\"host_cores\":%d,\"measurements\":[%s]}"
      (Domain.recommended_domain_count ())
      (String.concat "," (List.map json_of_measurement measurements))
  in
  Out_channel.with_open_text out (fun oc ->
      output_string oc json;
      output_char oc '\n');
  Printf.printf "wrote %s\n%!" out;
  if not (List.for_all (fun m -> m.identical) measurements) then
    failwith "join bench: row and columnar results differ"
