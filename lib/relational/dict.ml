(* The value dictionary: an append-only intern table mapping every
   [Value.t] the columnar storage layer has seen to a dense immutable
   [int] id. Logically this is a per-database dictionary; because
   databases are persistent maps that freely share relations (and
   relations flow between databases through joins and truncation), the
   implementation is one process-wide store — exactly like relation
   version stamps, which are also process-global for the same reason.

   Soundness of the id space is what the cache layer leans on: an id,
   once assigned, never changes meaning, so a memoized columnar artifact
   (an encoded relation, an integer-keyed index) can never decode to the
   wrong value — it can only become unreachable. The one exception is
   [reset], which tears the whole mapping down for tests; it bumps
   [generation], and every encoded artifact records the generation it
   was built under, so stale artifacts are detected and rebuilt instead
   of mis-decoded.

   Concurrency: interning happens on whichever domain encodes a relation
   (fan-out items encode inside their joins), so the value→id table is
   mutex-guarded. Decoding is the hot read path and takes no lock: the
   id→value array is published by [Atomic.set] after its slots are
   written, grown by copy (a published array is never shrunk and its
   initialized prefix never mutated), and a reader can only hold an id
   that some intern call returned before it — the release/acquire pair
   on the atomics makes the slot write visible. *)

let dummy = Value.Bool false
let mutex = Mutex.create ()
let table : int Value.Tbl.t = Value.Tbl.create 1024
let values : Value.t array Atomic.t = Atomic.make (Array.make 256 dummy)
let count = Atomic.make 0
let gen = Atomic.make 0

(* Must be called with [mutex] held. *)
let intern_locked v =
  match Value.Tbl.find_opt table v with
  | Some id -> id
  | None ->
      let n = Atomic.get count in
      let arr = Atomic.get values in
      let arr =
        if n < Array.length arr then arr
        else begin
          let bigger = Array.make (2 * Array.length arr) dummy in
          Array.blit arr 0 bigger 0 n;
          Atomic.set values bigger;
          bigger
        end
      in
      arr.(n) <- v;
      Value.Tbl.add table v n;
      Atomic.set count (n + 1);
      n

let intern v = Mutex.protect mutex (fun () -> intern_locked v)

(* One lock acquisition for a whole relation encode instead of one per
   cell. [f] must not call back into this module. *)
let with_interner f = Mutex.protect mutex (fun () -> f intern_locked)

let find_opt v = Mutex.protect mutex (fun () -> Value.Tbl.find_opt table v)
let value id = (Atomic.get values).(id)
let size () = Atomic.get count
let generation () = Atomic.get gen

let reset () =
  Mutex.protect mutex (fun () ->
      Value.Tbl.reset table;
      Atomic.set count 0;
      Atomic.incr gen)
