(* Everything runs on one domain. perfbench/bench/bench.ml, the only
   caller, still reads the job count and wraps its runs in [with_jobs],
   so both stay: one job, and [with_jobs] just runs [f]. *)
let jobs () = 1
let with_jobs _ f = f ()
