(* The tsens end-to-end benchmark.

   One process, one closed-loop client: the inputs of one workload are
   generated from --seed, then "passes" run back to back until --seconds
   is spent. A pass calls the library's public entry points for every
   query of the workload, grouped into seven ops (eval, tsens, elastic,
   probe, tsensdp, privsql, naive), and checks every answer. Each
   op's end-to-end metric is the median over passes of the process CPU
   time of one call of the op.

   --trace 1 makes a separate run of the same passes that reports the
   per-layer metrics instead: spans recorded by this file around each
   library call, the library's own Obs report, allocation and row
   counts. See perfbench/README.md for the workloads and the metric
   map. The last line of stdout is the result object; a record with the
   configuration and the per-query breakdown is appended to
   .bench_out/results.jsonl, and a traced run also writes its spans to
   .bench_out/<workload>-seed<seed>-trace.json. *)

open Tsens_relational
open Tsens_query
open Tsens_sensitivity
open Tsens_dp
open Tsens_workload

let now = Unix.gettimeofday

(* Process CPU seconds, all domains, to the microsecond ([getrusage];
   [Unix.times] counts in 10 ms ticks). The kernel leaves out time the
   hypervisor steals from the virtual CPUs, which on a shared host moves
   wall-clock timings by a fifth or more from one minute to the next. *)
let cpu_seconds = Sys.time

(* Words allocated by the calling domain. [Gc.counters] reads this
   domain's own totals; [Gc.quick_stat] also folds in other domains'
   counts whenever they are sampled, which makes deltas inexact once the
   pool's workers exist. *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b > 0.0 then a /. b else 0.0
let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs

module Json = Tsens_analysis.Json

let num f = if Float.is_finite f then Json.Float f else Json.Null

(* ------------------------------------------------------------------ *)
(* Workloads *)

type op = Eval | Tsens_op | Elastic_op | Probe | Tsensdp | Privsql_op | Naive_op

let ops = [ Eval; Tsens_op; Elastic_op; Probe; Tsensdp; Privsql_op; Naive_op ]

let op_name = function
  | Eval -> "eval"
  | Tsens_op -> "tsens"
  | Elastic_op -> "elastic"
  | Probe -> "probe"
  | Tsensdp -> "tsensdp"
  | Privsql_op -> "privsql"
  | Naive_op -> "naive"

type query = {
  instance : int;  (* the database it runs on; a pass runs one at a time *)
  label : string;
  cq : Cq.t;
  plans : Ghd.t list;
  skip : string list;  (* relations whose table TSens does not build *)
  db : Database.t;
  dp : Queries.dp_setup;
}

type workload = {
  name : string;
  reps : (op * int) list;
      (* calls of an op per pass (default 1), so that each op's sample
         lasts a few tenths of a second *)
  inputs : string;  (* the input sizes, as recorded in the results *)
  setup : int -> query list;  (* seed -> generated and bound inputs *)
}

(* With [instances] > 1 every query runs on that many databases, seeded
   [seed * instances + i] and labelled "<query>.<i>". The work of q3 on
   one small instance varies by up to a fifth either way from seed to
   seed (its output size and the rows of its dense table do), and a sum
   over several instances varies less. *)
let tpch_queries ~scale ?(skip = []) ?(instances = 1) labels seed =
  List.concat_map
    (fun i ->
      let db = Tpch.generate ~seed:((seed * instances) + i) ~scale () in
      List.map
        (fun label ->
          let dp = List.assoc label Queries.dp_setups in
          {
            instance = i;
            label =
              (if instances = 1 then label
               else Printf.sprintf "%s.%d" label (i + 1));
            cq = dp.Queries.query;
            plans = Queries.tpch_plans;
            skip;
            db;
            dp;
          })
        labels)
    (List.init instances Fun.id)

let acyclic_scale = 0.005
let cyclic_scale = 0.0015
let cyclic_instances = 4
let self_test_scale = 0.00005

let workloads =
  [
    {
      name = "tpch-acyclic";
      reps = [ (Eval, 2); (Elastic_op, 3); (Probe, 4); (Naive_op, 2) ];
      inputs = Printf.sprintf "TPC-H scale %g, q1 q2" acyclic_scale;
      setup =
        tpch_queries ~scale:acyclic_scale [ "q1"; "q2" ];
    };
    {
      name = "tpch-cyclic";
      reps = [ (Eval, 2); (Probe, 2); (Privsql_op, 2) ];
      inputs =
        Printf.sprintf
          "%d TPC-H instances at scale %g, q3 over q3_ghd, Lineitem skipped"
          cyclic_instances cyclic_scale;
      setup =
        tpch_queries ~scale:cyclic_scale ~skip:[ "Lineitem" ]
          ~instances:cyclic_instances [ "q3" ];
    };
  ]

(* Local sensitivity and |Q(D)| of every query at seed 42, checked on
   every pass of a seed-42 run. *)
let pins =
  [
    (("tpch-acyclic", "q1"), (6312, 30000));
    (("tpch-acyclic", "q2"), (831, 31952));
    (("tpch-cyclic", "q3.1"), (135, 354));
    (("tpch-cyclic", "q3.2"), (177, 491));
    (("tpch-cyclic", "q3.3"), (117, 454));
    (("tpch-cyclic", "q3.4"), (233, 441));
  ]

(* ------------------------------------------------------------------ *)
(* Benchmark spans: one around each library call, kept in memory *)

type span = {
  id : int;
  parent : int;  (* 0 at the top *)
  op : string;  (* the op this call belongs to *)
  name : string;
  label : string;  (* the query, or "" *)
  start : float;
  mutable stop : float;
  mutable words : float;  (* allocated on this domain, in words *)
}

let tracing = ref false
let spans : span list ref = ref []
let open_spans : span list ref = ref []
let next_span_id = ref 0

let span ?op name label f =
  if not !tracing then f ()
  else begin
    incr next_span_id;
    let parent, op =
      match (!open_spans, op) with
      | p :: _, _ -> (p.id, p.op)
      | [], Some op -> (0, op)
      | [], None -> (0, name)
    in
    let s =
      {
        id = !next_span_id;
        parent;
        op;
        name;
        label;
        start = now ();
        stop = nan;
        words = allocated_words ();
      }
    in
    open_spans := s :: !open_spans;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- now ();
        s.words <- allocated_words () -. s.words;
        open_spans := List.tl !open_spans;
        spans := s :: !spans)
      f
  end

let duration s = s.stop -. s.start

(* ------------------------------------------------------------------ *)
(* Ops and checks *)

exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

(* The self-test plants a wrong answer in one op: one more than its
   result (for Elastic, one less than TSens). *)
let plant : op option ref = ref None
let planted op v = if !plant = Some op then v + 1 else v

type qstate = {
  q : query;
  mutable count : Count.t;
  mutable analysis : Tsens.analysis option;
}

let get_analysis st =
  match st.analysis with
  | Some a -> a
  | None -> failwith ("no analysis of " ^ st.q.label)

let reps_of (workload : workload) o =
  Option.value ~default:1 (List.assoc_opt o workload.reps)

let dp_trials = 20
let top_k = 10

let run_body ~(workload : workload) ~seed op states =
  let pin st = List.assoc_opt (workload.name, st.q.label) pins in
  let pinned = seed = 42 in
  match op with
  | Eval ->
      List.iter
        (fun st ->
          let q = st.q in
          let c =
            span "Yannakakis.count" q.label (fun () ->
                Yannakakis.count ~plans:q.plans q.cq q.db)
          in
          st.count <- planted op c;
          match pin st with
          | Some (_, out) when pinned ->
              check (st.count = out) "%s: |Q(D)| %d, pinned %d" q.label
                st.count out
          | _ -> ())
        states
  | Tsens_op ->
      List.iter
        (fun st ->
          let q = st.q in
          let a =
            span "Tsens.analyze" q.label (fun () ->
                Tsens.analyze ~skip:q.skip ~plans:q.plans q.cq q.db)
          in
          st.analysis <- Some a;
          let r = span "Tsens.result" q.label (fun () -> Tsens.result a) in
          let out = planted op (Tsens.output_size a) in
          check (out = st.count) "%s: TSens |Q(D)| %d, Yannakakis %d" q.label
            out st.count;
          match pin st with
          | Some (ls, _) when pinned ->
              check
                (r.Sens_types.local_sensitivity = ls)
                "%s: TSens LS %d, pinned %d" q.label
                r.Sens_types.local_sensitivity ls
          | _ -> ())
        states
  | Elastic_op ->
      List.iter
        (fun st ->
          let q = st.q in
          let e =
            span "Elastic.local_sensitivity" q.label (fun () ->
                Elastic.local_sensitivity ~plans:q.plans q.cq q.db)
          in
          let ls = (Tsens.result (get_analysis st)).Sens_types.local_sensitivity in
          let el =
            if !plant = Some op then ls - 1 else e.Sens_types.local_sensitivity
          in
          check (ls <= el) "%s: Elastic %d below TSens %d" q.label el ls)
        states
  | Probe ->
      List.iter
        (fun st ->
          let q = st.q in
          let a = get_analysis st in
          let per_relation = (Tsens.result a).Sens_types.per_relation in
          List.iter
            (fun rel ->
              if not (List.mem rel q.skip) then begin
                let top =
                  span "Tsens.top_sensitive" q.label (fun () ->
                      Tsens.top_sensitive a rel top_k)
                in
                let head = match top with (_, c) :: _ -> c | [] -> 0 in
                let best = List.assoc rel per_relation in
                check (planted op head = best)
                  "%s: top_sensitive %s head %d, table max %d" q.label rel head
                  best
              end)
            (Cq.relation_names q.cq);
          let private_relation = q.dp.Queries.private_relation in
          let p =
            span "Truncation.profile" q.label (fun () ->
                Truncation.profile a private_relation)
          in
          let full =
            Truncation.truncated_answer p (Truncation.max_tuple_sensitivity p)
          in
          check (full = st.count) "%s: untruncated profile %d, |Q(D)| %d"
            q.label full st.count)
        states
  | Tsensdp ->
      List.iter
        (fun st ->
          let q = st.q in
          let private_relation = q.dp.Queries.private_relation in
          let skip =
            List.filter (( <> ) private_relation) (Cq.relation_names q.cq)
          in
          let a =
            span "Tsens.analyze" q.label (fun () ->
                Tsens.analyze ~skip ~plans:q.plans q.cq q.db)
          in
          let config =
            Mechanism.default_config ~ell:q.dp.Queries.ell ~private_relation
          in
          let rng = Prng.create (seed + 1) in
          for _ = 1 to dp_trials do
            let report =
              span "Mechanism.run_with_analysis" q.label (fun () ->
                  Mechanism.run_with_analysis rng config a)
            in
            let truth = int_of_float report.Report.true_answer in
            check (planted op truth = st.count)
              "%s: TSensDP true answer %d, |Q(D)| %d" q.label truth st.count
          done)
        states
  | Privsql_op ->
      List.iter
        (fun st ->
          let q = st.q in
          let config =
            Privsql.default_config ~ell:q.dp.Queries.ell
              ~private_relation:q.dp.Queries.private_relation
              ~cascade:q.dp.Queries.cascade
          in
          let rng = Prng.create (seed + 2) in
          let report =
            span "Privsql.run" q.label (fun () ->
                Privsql.run rng config ~plans:q.plans q.cq q.db)
          in
          let truth = int_of_float report.Report.true_answer in
          check (planted op truth = st.count)
            "%s: PrivSQL true answer %d, |Q(D)| %d" q.label truth st.count)
        states
  | Naive_op -> (
      (* Naive.tuple_sensitivity of the first query's TSens witness: the
         full oracle, one count per candidate tuple, is out of reach at
         these sizes. *)
      match states with
      | [] -> ()
      | st :: _ -> (
          let q = st.q in
          match (Tsens.result (get_analysis st)).Sens_types.witness with
          | None -> failwith (q.label ^ ": TSens found no witness")
          | Some w ->
              let rel = w.Sens_types.relation in
              let stored = Relation.schema (Database.find rel q.db) in
              let tuple =
                Tuple.project
                  (Schema.positions ~sub:stored w.Sens_types.schema)
                  w.Sens_types.tuple
              in
              let d =
                span "Naive.tuple_sensitivity" q.label (fun () ->
                    Naive.tuple_sensitivity q.cq q.db rel tuple)
              in
              let d = planted op d in
              check
                (d = w.Sens_types.sensitivity)
                "%s: Naive sensitivity of the witness %d, TSens %d" q.label d
                w.Sens_types.sensitivity))

(* ------------------------------------------------------------------ *)
(* Passes *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable messages : string list;
}

let new_tally () = { attempted = 0; failed = 0; messages = [] }

type op_sample = {
  o : op;
  seconds : float;  (* wall clock per call of the op *)
  cpu : float;  (* process CPU seconds per call *)
  reps : int;
  reports : Obs.Report.t list;
      (* the library's Obs report of each instance, when on *)
}

(* What a pass leaves of each query once its instance is done: the
   answers, and in a traced pass the per-query counts. *)
type outcome = {
  query : string;
  output_size : Count.t;
  ls : int option;
  counts : (string * float) list;
}

let outcome ~obs st =
  let counts a =
    let nodes, tables = Tsens.statistics a in
    let fsum f xs = List.fold_left (fun acc x -> acc +. float_of_int (f x)) 0.0 xs in
    let p = Truncation.profile a st.q.dp.Queries.private_relation in
    [
      ("tsens.table_rows", fsum (fun t -> t.Tsens.table_rows) tables);
      ( "tsens.dense_tables",
        fsum (fun t -> if t.Tsens.factored then 0 else 1) tables );
      ("tsens.botjoin_rows", fsum (fun n -> n.Tsens.botjoin_rows) nodes);
      ("tsens.topjoin_rows", fsum (fun n -> n.Tsens.topjoin_rows) nodes);
      ("truncation.entries", float_of_int (Truncation.last_kept p max_int + 1));
    ]
  in
  {
    query = st.q.label;
    output_size = st.count;
    ls =
      Option.map
        (fun a -> (Tsens.result a).Sens_types.local_sensitivity)
        st.analysis;
    counts = (match st.analysis with Some a when obs -> counts a | _ -> []);
  }

(* One pass: every op once (each op [reps] times) on every instance, one
   instance after the other, so that only one instance's analyses are
   alive at a time; an op's sample is its time summed over the
   instances. With [obs] the library's Obs sink is reset and captured
   around each op on each instance. *)
let run_pass ?(obs = false) ~tally ~(workload : workload) ~seed queries =
  let instances = List.sort_uniq compare (List.map (fun q -> q.instance) queries) in
  let per_instance i =
    let states =
      List.filter_map
        (fun q ->
          if q.instance = i then Some { q; count = 0; analysis = None } else None)
        queries
    in
    let samples =
      List.map
        (fun o ->
          let reps = reps_of workload o in
          Gc.full_major ();
          tally.attempted <- tally.attempted + 1;
          if obs then Obs.reset ();
          let t0 = now () and c0 = cpu_seconds () in
          (try
             span ~op:(op_name o) (op_name o) "" (fun () ->
                 for _ = 1 to reps do
                   run_body ~workload ~seed o states
                 done)
           with e ->
             let msg =
               match e with Check_failed m -> m | e -> Printexc.to_string e
             in
             tally.failed <- tally.failed + 1;
             tally.messages <- (op_name o ^ ": " ^ msg) :: tally.messages);
          let seconds = (now () -. t0) /. float_of_int reps in
          let cpu = (cpu_seconds () -. c0) /. float_of_int reps in
          let reports = if obs then [ Obs.Report.capture () ] else [] in
          { o; seconds; cpu; reps; reports })
        ops
    in
    (List.map (outcome ~obs) states, samples)
  in
  let merge a b =
    List.map2
      (fun x y ->
        {
          x with
          seconds = x.seconds +. y.seconds;
          cpu = x.cpu +. y.cpu;
          reports = x.reports @ y.reports;
        })
      a b
  in
  List.fold_left
    (fun (outcomes, samples) i ->
      let o, s = per_instance i in
      (outcomes @ o, if samples = [] then s else merge samples s))
    ([], []) instances

let seconds_of o samples =
  match List.find_opt (fun s -> s.o = o) samples with
  | Some s -> s.seconds
  | None -> 0.0

(* A wrong answer planted in any op must fail the pass, and the
   unplanted pass must succeed: one tiny pass per op. Returns the ops
   whose planted answer went unnoticed. *)
let self_test () =
  let workload =
    { name = "self-test"; reps = []; inputs = ""; setup = (fun _ -> []) }
  in
  let queries = tpch_queries ~scale:self_test_scale [ "q1" ] 7 in
  let failures planting =
    plant := planting;
    let tally = new_tally () in
    Fun.protect
      ~finally:(fun () -> plant := None)
      (fun () -> ignore (run_pass ~tally ~workload ~seed:7 queries));
    tally.failed
  in
  if failures None > 0 then [ "none" ]
  else
    List.filter_map
      (fun o -> if failures (Some o) = 0 then Some (op_name o) else None)
      ops

(* ------------------------------------------------------------------ *)
(* Set-up *)

let setup_batches = 9
let setup_batch = 0.2

(* Generates the inputs repeatedly: one warm-up set-up, which also grows
   the heap from empty, then [setup_batches] batches of at least
   [setup_batch] seconds each, so that a set-up of a few milliseconds is
   timed over many calls. Returns the last inputs with the median CPU
   and wall-clock time of one set-up over the batches. *)
let timed_setup (workload : workload) seed =
  ignore (workload.setup seed);
  let rec batch calls t0 c0 =
    let queries = workload.setup seed in
    let calls = calls + 1 in
    let wall = now () -. t0 in
    if wall >= setup_batch then
      let per_call x = x /. float_of_int calls in
      (queries, per_call (cpu_seconds () -. c0), per_call wall)
    else batch calls t0 c0
  in
  let rec loop n last cpus walls =
    if n = 0 then (last, median cpus, median walls)
    else begin
      Gc.full_major ();
      let queries, cpu, wall = batch 0 (now ()) (cpu_seconds ()) in
      loop (n - 1) queries (cpu :: cpus) (wall :: walls)
    end
  in
  loop setup_batches [] [] []

let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          let line = input_line ic in
          if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
          else scan ()
        in
        scan ())
  with _ ->
    let words = float_of_int (Gc.quick_stat ()).Gc.top_heap_words in
    words *. float_of_int (Sys.word_size / 8) /. 1_048_576.0

(* The host's CPU time counters (user, nice, system, idle, iowait, irq,
   softirq, steal, ...), for the share of time stolen by the hypervisor
   during the run: the main source of run-to-run noise on shared
   virtual machines. Empty where /proc/stat is missing. *)
let host_jiffies () =
  try
    let ic = open_in "/proc/stat" in
    let line =
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic)
    in
    String.split_on_char ' ' line
    |> List.filter (fun w -> w <> "" && w <> "cpu")
    |> List.map float_of_string
  with _ -> []

let steal_share before after =
  match (before, after) with
  | _ :: _ :: _ :: _ :: _ :: _ :: _ :: s0 :: _,
    _ :: _ :: _ :: _ :: _ :: _ :: _ :: s1 :: _ ->
      let total = List.fold_left ( +. ) 0.0 in
      ratio (s1 -. s0) (total after -. total before)
  | _ -> 0.0

(* ------------------------------------------------------------------ *)
(* The timed run: end-to-end metrics *)

let min_passes = 3

(* |Q(D)| and the local sensitivity of every query, as recorded. *)
let answers_of outcomes =
  Json.Obj
    (List.map
       (fun o ->
         ( o.query,
           Json.Obj
             [
               ("output_size", Json.Int o.output_size);
               ( "local_sensitivity",
                 match o.ls with Some ls -> Json.Int ls | None -> Json.Str "n/a" );
             ] ))
       outcomes)

(* Passes until the next one would end after [deadline]; returns the
   samples of every pass, the host's steal share during each pass and
   the answers of the last. *)
let timed_run ~tally ~workload ~seed ~deadline queries =
  let rec loop passes steals last =
    let per_pass =
      median
        (List.map
           (fun s -> sum (fun x -> x.seconds *. float_of_int x.reps) s)
           passes)
    in
    if List.length passes < min_passes || now () +. per_pass <= deadline then begin
      let j0 = host_jiffies () in
      let outcomes, samples = run_pass ~tally ~workload ~seed queries in
      let answers = answers_of outcomes in
      loop (samples :: passes)
        (steal_share j0 (host_jiffies ()) :: steals)
        answers
    end
    else (List.rev passes, List.rev steals, last)
  in
  loop [] [] (Json.Obj [])

(* ------------------------------------------------------------------ *)
(* The traced run: per-layer metrics *)

let obs_spans =
  [
    "join.project";
    "join.count";
    "join.stream";
    "join.merge";
    "relation.project";
    "index.build";
    "tsens.tables";
    "tsens.botjoin";
    "tsens.topjoin";
  ]

let obs_counters =
  [
    "join.rows_emitted";
    "relation.rows_projected";
    "index.probes";
    "index.rows_indexed";
  ]

let obs_gauges = [ "join.max_group_table_rows" ]

let cache_stores =
  [
    "elastic.mf";
    "relational.index";
    "truncation.profile";
    "tsens.analysis";
    "yannakakis.count";
  ]

let last_component path =
  match String.rindex_opt path '/' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path

let reports samples = List.concat_map (fun s -> s.reports) samples

let report_spans samples =
  List.concat_map (fun r -> r.Obs.Report.spans) (reports samples)

let report_counter samples name =
  List.fold_left
    (fun acc r ->
      match List.find_opt (fun t -> t.Obs.Report.name = name) r.Obs.Report.counters with
      | Some t -> acc + t.Obs.Report.total
      | None -> acc)
    0 (reports samples)

let report_gauge samples name =
  List.fold_left
    (fun acc r ->
      match List.find_opt (fun t -> t.Obs.Report.name = name) r.Obs.Report.gauges with
      | Some t -> max acc t.Obs.Report.total
      | None -> acc)
    0 (reports samples)

(* Share of the op's wall clock covered by the library's top-level Obs
   spans. *)
let attributed_share sample =
  let covered =
    sum
      (fun s -> s.Obs.Report.seconds)
      (List.filter
         (fun s -> not (String.contains s.Obs.Report.path '/'))
         (report_spans [ sample ]))
  in
  ratio covered (sample.seconds *. float_of_int sample.reps)

(* Runs [f] with the benchmark's spans and the library's Obs sink on,
   returning the spans recorded. *)
let traced f =
  spans := [];
  tracing := true;
  Obs.enable ();
  let result =
    Fun.protect
      ~finally:(fun () ->
        tracing := false;
        Obs.disable ())
      f
  in
  (result, List.rev !spans)

let calls_of ~op ~name spans =
  List.filter (fun (s : span) -> s.op = op && s.name = name && s.parent <> 0) spans

(* Per-query seconds (or words) of one call name within one op, per op
   repetition. *)
let per_query ~reps ~op ~name ~value (queries : query list) spans =
  List.map
    (fun (q : query) ->
      let calls =
        List.filter (fun (s : span) -> s.label = q.label) (calls_of ~op ~name spans)
      in
      (q.label, sum value calls /. float_of_int reps))
    queries

let self_seconds spans s =
  duration s
  -. sum duration (List.filter (fun c -> c.parent = s.id) spans)

let relation_update_seconds queries =
  let rel =
    List.fold_left
      (fun best q ->
        Database.fold
          (fun _ r best ->
            match best with
            | Some b when Relation.distinct_count b >= Relation.distinct_count r ->
                best
            | _ -> Some r)
          q.db best)
      None queries
  in
  match rel with
  | None -> 0.0
  | Some rel -> (
      match Relation.rows rel with
      | [||] -> 0.0
      | rows ->
          let t = fst rows.(0) in
          let rec loop n t0 =
            ignore (Relation.remove t (Relation.add t rel));
            let elapsed = now () -. t0 in
            if n + 1 >= 3 && elapsed >= 0.2 then elapsed /. float_of_int (n + 1)
            else loop (n + 1) t0
          in
          loop 0 (now ()))

let traced_run ~tally ~(workload : workload) ~seed queries ~setup_seconds =
  Gc.full_major ();
  let _, plain = run_pass ~tally ~workload ~seed queries in
  Gc.full_major ();
  let (_, dflt), dflt_spans =
    traced (fun () -> run_pass ~obs:true ~tally ~workload ~seed queries)
  in
  Gc.full_major ();
  let (outcomes1, jobs1), jobs1_spans =
    traced (fun () ->
        Exec.with_jobs 1 (fun () ->
            run_pass ~obs:true ~tally ~workload ~seed queries))
  in
  let pq ?(spans = dflt_spans) ?(value = duration) op name =
    let reps = reps_of workload (List.find (fun o -> op_name o = op) ops) in
    per_query ~reps ~op ~name ~value queries spans
  in
  let words s = s.words /. 1e6 in
  let count name =
    List.map
      (fun o ->
        (o.query, Option.value ~default:0.0 (List.assoc_opt name o.counts)))
      outcomes1
  in
  let trial_seconds =
    List.map duration
      (calls_of ~op:"tsensdp" ~name:"Mechanism.run_with_analysis" dflt_spans)
  in
  let op_words o =
    sum
      (fun s -> if s.parent = 0 && s.op = op_name o then s.words else 0.0)
      jobs1_spans
    /. float_of_int (reps_of workload o)
    /. 1e6
  in
  let per_query_metrics =
    [
      ("tsens.analyze_s", "s", pq "tsens" "Tsens.analyze");
      ( "alloc_mw.tsens",
        "Mw",
        pq ~spans:jobs1_spans ~value:words "tsens" "Tsens.analyze" );
      ("tsens.table_rows", "count", count "tsens.table_rows");
      ("tsens.dense_tables", "count", count "tsens.dense_tables");
      ("tsens.botjoin_rows", "count", count "tsens.botjoin_rows");
      ("tsens.topjoin_rows", "count", count "tsens.topjoin_rows");
      ("tsens.top_sensitive_s", "s", pq "probe" "Tsens.top_sensitive");
      ("truncation.profile_s", "s", pq "probe" "Truncation.profile");
      ("truncation.entries", "count", count "truncation.entries");
      ( "elastic.local_sensitivity_s",
        "s",
        pq "elastic" "Elastic.local_sensitivity" );
      ("yannakakis.count_s", "s", pq "eval" "Yannakakis.count");
      ("privsql.run_s", "s", pq "privsql" "Privsql.run");
    ]
  in
  (* alloc_mw.tsens comes per op below; its split by query stays in the
     detail. *)
  let totals =
    List.filter_map
      (fun (name, unit, xs) ->
        if name = "alloc_mw.tsens" then None else Some (name, unit, sum snd xs))
      per_query_metrics
  in
  let dflt_total = sum (fun s -> s.seconds) dflt in
  let plain_total = sum (fun s -> s.seconds) plain in
  let obs_self name =
    sum
      (fun s ->
        if last_component s.Obs.Report.path = name then s.Obs.Report.self_seconds
        else 0.0)
      (report_spans jobs1)
  in
  let cache = Cache.stats () in
  let cache_field f store =
    match List.find_opt (fun s -> s.Cache.store = store) cache with
    | Some s -> float_of_int (f s)
    | None -> 0.0
  in
  let tuples =
    List.fold_left
      (fun (seen, acc) q ->
        if List.memq q.db seen then (seen, acc)
        else (q.db :: seen, acc + Database.total_tuples q.db))
      ([], 0) queries
    |> snd
  in
  let metrics =
    [
      ("workload.generate_s", "s", setup_seconds);
      ("workload.tuples", "count", float_of_int tuples);
    ]
    @ totals
    @ [
        ( "naive.s_per_probe",
          "s",
          median
            (List.map duration
               (calls_of ~op:"naive" ~name:"Naive.tuple_sensitivity" dflt_spans))
        );
        ("mechanism.trial_s", "s", median trial_seconds);
        ("relation.update_s", "s", relation_update_seconds queries);
      ]
    @ List.map (fun o -> ("alloc_mw." ^ op_name o, "Mw", op_words o)) ops
    @ List.map (fun n -> ("span." ^ n ^ ".self_s", "s", obs_self n)) obs_spans
    @ List.map
        (fun n ->
          (n, "count", float_of_int (report_counter jobs1 n)))
        (obs_counters @ [ "elastic.mf_evals"; "elastic.memo_hits" ])
    @ List.map
        (fun n -> (n, "count", float_of_int (report_gauge jobs1 n)))
        obs_gauges
    @ [ ("exec.jobs", "count", float_of_int (Exec.jobs ())) ]
    @ List.map
        (fun o ->
          ( "exec.jobs1_ratio." ^ op_name o,
            "ratio",
            ratio (seconds_of o jobs1) (seconds_of o dflt) ))
        ops
    @ List.concat_map
        (fun store ->
          [
            ("cache.hits." ^ store, "count", cache_field (fun s -> s.Cache.hits) store);
            ( "cache.misses." ^ store,
              "count",
              cache_field (fun s -> s.Cache.misses) store );
          ])
        cache_stores
    @ [ ("obs.overhead_ratio", "ratio", ratio dflt_total plain_total) ]
    @ List.map
        (fun o ->
          ( "obs.attributed_share." ^ op_name o,
            "ratio",
            attributed_share
              (List.find (fun s -> s.o = o) jobs1) ))
        ops
  in
  let detail =
    Json.Obj
      (List.map
         (fun (name, unit, xs) ->
           ( name,
             Json.Obj
               [
                 ("unit", Json.Str unit);
                 ("by_query", Json.Obj (List.map (fun (l, v) -> (l, num v)) xs));
               ] ))
         per_query_metrics)
  in
  let span_json spans =
    Json.List
      (List.map
         (fun s ->
           Json.Obj
             [
               ("id", Json.Int s.id);
               ("parent", Json.Int s.parent);
               ("op", Json.Str s.op);
               ("name", Json.Str s.name);
               ("query", Json.Str s.label);
               ("start", num s.start);
               ("end", num s.stop);
               ("self_s", num (self_seconds spans s));
               ("alloc_words", num s.words);
             ])
         spans)
  in
  let obs_json samples =
    Json.Obj
      (List.map
         (fun s ->
           ( op_name s.o,
             Json.List
               (List.map
                  (fun r ->
                    match Json.of_string (Obs.Report.to_json r) with
                    | Ok j -> j
                    | Error e -> failwith ("Obs report: " ^ e))
                  s.reports) ))
         samples)
  in
  let trace =
    Json.Obj
      [
        ("spans_default_jobs", span_json dflt_spans);
        ("spans_jobs1", span_json jobs1_spans);
        ("obs_default_jobs", obs_json dflt);
        ("obs_jobs1", obs_json jobs1);
      ]
  in
  (metrics, detail, trace, outcomes1)

(* ------------------------------------------------------------------ *)
(* Main *)

let usage =
  "bench --workload NAME --seed N --seconds S --trace 0|1\n\
   workloads: tpch-acyclic, tpch-cyclic"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2)
    fmt

let out_dir = ".bench_out"

let append_file path line =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
  in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc line;
      output_char oc '\n')

let () =
  let started = now () in
  let workload = ref "" and seed = ref 42 and seconds = ref 10.0
  and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 timed or traced run");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let workload =
    match List.find_opt (fun (w : workload) -> w.name = !workload) workloads with
    | Some w -> w
    | None -> die "unknown workload %S\n%s" !workload usage
  in
  (* Both sides of a comparison must measure the shipped defaults. *)
  Array.iter
    (fun kv ->
      if String.length kv >= 6 && String.sub kv 0 6 = "TSENS_" then
        die "refusing to run with %s set: unset every TSENS_* variable" kv)
    (Unix.environment ());
  let seed = !seed and traced_mode = !trace = 1 in
  let jiffies = host_jiffies () in
  (* Set-up runs first, as loading data does in real use: before any
     parallel region has started the pool's domains, which would
     otherwise join every minor collection of the set-up. *)
  let queries, setup_cpu, setup_seconds = timed_setup workload seed
  in
  (match self_test () with
  | [] -> ()
  | missed ->
      die "self-test: planted wrong answers not caught in %s"
        (String.concat ", " missed));
  let tally = new_tally () in
  let metrics, detail, trace_json, passes, answers =
    if traced_mode then
      let metrics, detail, trace_json, outcomes =
        traced_run ~tally ~workload ~seed queries ~setup_seconds
      in
      (metrics, detail, Some trace_json, 3, answers_of outcomes)
    else
      let passes, steals, answers =
        (* --seconds covers the whole run, set-up and self-test too *)
        timed_run ~tally ~workload ~seed ~deadline:(started +. !seconds)
          queries
      in
      let cpu_of o p = (List.find (fun s -> s.o = o) p).cpu in
      let metrics =
        [ ("setup_s", "s", setup_cpu) ]
        @ List.map
            (fun o ->
              (op_name o ^ "_cpu_s", "s", median (List.map (cpu_of o) passes)))
            ops
        @ [ ("peak_rss_mb", "MB", peak_rss_mb ()) ]
      in
      let samples name f =
        List.map
          (fun o ->
            (op_name o ^ name, Json.List (List.map (fun p -> num (f o p)) passes)))
          ops
      in
      ( metrics,
        Json.Obj
          ((("setup_wall_s", num setup_seconds) :: samples "_cpu_s" cpu_of)
          @ samples "_wall_s" seconds_of
          @ [ ("pass_steal_share", Json.List (List.map num steals)) ]),
        None,
        List.length passes,
        answers )
  in
  let correct = tally.failed = 0 in
  let config =
    Json.Obj
      [
        ("workload", Json.Str workload.name);
        ("seed", Json.Int seed);
        ("inputs", Json.Str workload.inputs);
        ( "reps",
          Json.Obj (List.map (fun o -> (op_name o, Json.Int (reps_of workload o))) ops) );
        ("passes", Json.Int passes);
        ("setup_batches", Json.Int setup_batches);
        ("storage", Json.Str "shipped default (TSENS_STORAGE unset)");
        ("exec_jobs", Json.Int (Exec.jobs ()));
        ("cache_enabled", Json.Bool (Cache.enabled ()));
        ("nproc", Json.Int (Domain.recommended_domain_count ()));
        ("ocaml", Json.Str Sys.ocaml_version);
        ("host_steal_share", num (steal_share jiffies (host_jiffies ())));
      ]
  in
  let metrics_json =
    Json.Obj
      (List.map
         (fun (name, unit, v) ->
           (name, Json.Obj [ ("value", num v); ("unit", Json.Str unit) ]))
         metrics)
  in
  let record =
    Json.Obj
      [
        ("workload", Json.Str workload.name);
        ("seed", Json.Int seed);
        ("trace", Json.Bool traced_mode);
        ("config", config);
        ("correct", Json.Bool correct);
        ("attempted", Json.Int tally.attempted);
        ("failed", Json.Int tally.failed);
        ("failures", Json.List (List.rev_map (fun m -> Json.Str m) tally.messages));
        ("metrics", metrics_json);
        ("answers", answers);
        ("detail", detail);
      ]
  in
  append_file (Filename.concat out_dir "results.jsonl") (Json.to_string record);
  Option.iter
    (fun t ->
      let path =
        Filename.concat out_dir
          (Printf.sprintf "%s-seed%d-trace.json" workload.name seed)
      in
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
          output_string oc (Json.to_string (Json.Obj [ ("config", config); ("trace", t) ]))))
    trace_json;
  List.iter (fun m -> prerr_endline ("perfbench: FAILED " ^ m)) (List.rev tally.messages);
  print_endline ("config " ^ Json.to_string config);
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int tally.attempted);
            ("failed", Json.Int tally.failed);
            ("metrics", metrics_json);
          ]));
  exit (if correct then 0 else 1)
