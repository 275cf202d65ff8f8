(* Nothing is memoized. perfbench/bench/bench.ml, the only reader, still
   records these stats and this flag, so they stay, empty and false. *)
type stats = { store : string; hits : int; misses : int }

let stats () : stats list = []
let enabled () = false
