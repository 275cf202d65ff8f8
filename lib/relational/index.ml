(* Keyed once at build; lookups share the precomputed key positions.

   Groups are frozen as arrays at the end of [build], so join probe
   loops iterate contiguous memory instead of chasing cons cells.

   Under TSENS_STORAGE=columnar the index is built in the integer
   domain instead: the source is encoded once ({!Relation.encoded}), the
   key collapses to one int signature per row (raw dictionary id for
   single-column keys, a {!Intkey.Keydict} id otherwise), and the groups
   are chained row ids in an open-addressing table. A probe interns
   nothing: each probe value is looked up in the dictionary, and any
   absent value proves the key matches no row. Group rows decode to
   tuples only when [lookup] materializes them — [group_count] never
   touches a tuple. *)

let c_builds = Obs.counter "index.builds"
let c_probes = Obs.counter "index.probes"
let c_rows = Obs.counter "index.rows_indexed"
let g_group = Obs.gauge "index.max_group_rows"

module H = Tuple.Tbl

(* One cell per key holds both the group's rows and its summed count,
   so building costs one hash lookup per row. [pending] collects the
   rows during the build; [rows] is the frozen array lookups return. *)
type group = {
  mutable pending : (Tuple.t * Count.t) list;
  mutable rows : (Tuple.t * Count.t) array;
  mutable total : Count.t;
}

(* Columnar impl: [heads]/[next] thread each signature's rows newest
   first (the same per-group order as the row build, which conses in
   relation order), [counts] sums multiplicities per signature. *)
type cols = {
  crel : Colrel.t; (* encoded source, relation row order *)
  kpos : int array; (* key column positions in the source *)
  ckd : Intkey.Keydict.t option; (* Some iff key arity >= 2 *)
  heads : Intkey.Itab.t; (* signature -> newest row id *)
  next : int array; (* row id -> older row id with same signature *)
  ccounts : Intkey.Itab.t; (* signature -> summed count *)
  dec : (int, (Tuple.t * Count.t) array) Hashtbl.t;
      (* decoded groups by signature, filled lazily on [lookup] so
         repeated probes alias one frozen array (the contract cached
         indexes rely on); mutex-guarded — a cached index may be probed
         from several fan-out domains. *)
  dmutex : Mutex.t;
}

type impl = Rows of group H.t | Cols of cols

type t = { key : Schema.t; source : Schema.t; impl : impl }

(* The temporary cons lists reverse row order, as the frozen arrays'
   contract requires (newest first, matching the historical list-based
   index). *)
let build_rows positions rel =
  let rows = Relation.rows rel in
  let table = H.create (max 16 (Array.length rows)) in
  Array.iter
    (fun ((tup, cnt) as row) ->
      let key = Tuple.project positions tup in
      match H.find_opt table key with
      | Some g ->
          g.pending <- row :: g.pending;
          g.total <- Count.add_tracked g.total cnt
      | None -> H.add table key { pending = [ row ]; rows = [||]; total = cnt })
    rows;
  H.iter
    (fun _ g ->
      g.rows <- Array.of_list g.pending;
      g.pending <- [])
    table;
  table

(* Per-row key signature over the encoded source: an arity-0 key puts
   every row in one group (signature 0), arity 1 uses the raw dictionary
   id, wider keys intern through a Keydict. *)
let build_cols positions rel =
  let crel = Relation.encoded rel in
  let n = Colrel.nrows crel in
  let k = Array.length positions in
  let ckd, sig_of =
    if k = 0 then (None, fun _ -> 0)
    else if k = 1 then
      let src = Colrel.col crel positions.(0) in
      (None, fun i -> src.(i))
    else begin
      let kd = Intkey.Keydict.create ~arity:k n in
      let srcs = Array.map (Colrel.col crel) positions in
      let scratch = Array.make k 0 in
      ( Some kd,
        fun i ->
          for j = 0 to k - 1 do
            scratch.(j) <- srcs.(j).(i)
          done;
          Intkey.Keydict.lookup_or_add kd scratch )
    end
  in
  let heads = Intkey.Itab.create (max 16 n) in
  let next = Array.make (max 1 n) (-1) in
  let ccounts = Intkey.Itab.create (max 16 n) in
  let counts = Colrel.counts crel in
  for i = 0 to n - 1 do
    let s = sig_of i in
    next.(i) <- Intkey.Itab.exchange heads s i ~default:(-1);
    Intkey.Itab.add_count ccounts s counts.(i)
  done;
  {
    crel;
    kpos = positions;
    ckd;
    heads;
    next;
    ccounts;
    dec = Hashtbl.create 16;
    dmutex = Mutex.create ();
  }

let build ~key rel =
  Obs.span "index.build" @@ fun () ->
  let source = Relation.schema rel in
  if not (Schema.subset key source) then
    Errors.schema_errorf "index key %a not a subset of %a" Schema.pp key
      Schema.pp source;
  let positions = Schema.positions ~sub:key source in
  let impl =
    if Storage.is_columnar () then Cols (build_cols positions rel)
    else Rows (build_rows positions rel)
  in
  if Obs.enabled () then begin
    Obs.tick c_builds;
    Obs.add c_rows (Relation.distinct_count rel);
    match impl with
    | Rows table ->
        H.iter (fun _ g -> Obs.observe g_group (Array.length g.rows)) table
    | Cols c ->
        Intkey.Itab.iter
          (fun _ head ->
            let len = ref 0 and i = ref head in
            while !i >= 0 do
              incr len;
              i := c.next.(!i)
            done;
            Obs.observe g_group !len)
          c.heads
  end;
  { key; source; impl }

let key_schema t = t.key
let source_schema t = t.source

(* Signature of a probe tuple, or -1 when some probe value was never
   interned (then no indexed row can match it). Probing never interns:
   the dictionary only grows when relations are encoded. *)
let probe_sig c k =
  let arity = Array.length c.kpos in
  if arity = 0 then 0
  else if arity = 1 then (
    match Dict.find_opt (Tuple.get k 0) with Some id -> id | None -> -1)
  else begin
    let ids = Array.make arity 0 in
    let ok = ref true in
    for j = 0 to arity - 1 do
      match Dict.find_opt (Tuple.get k j) with
      | Some id -> ids.(j) <- id
      | None -> ok := false
    done;
    if not !ok then -1 else Intkey.Keydict.lookup (Option.get c.ckd) ids
  end

let chain_rows c head =
  let ids = ref [] and i = ref head in
  (* Collect then decode: chain order is newest-first already. *)
  while !i >= 0 do
    ids := !i :: !ids;
    i := c.next.(!i)
  done;
  let ids = Array.of_list (List.rev !ids) in
  Array.map
    (fun i -> (Colrel.decode_row c.crel i, Colrel.count c.crel i))
    ids

let lookup t k =
  Obs.tick c_probes;
  match t.impl with
  | Rows table -> (
      match H.find_opt table k with Some g -> g.rows | None -> [||])
  | Cols c ->
      let s = probe_sig c k in
      if s < 0 then [||]
      else
        let head = Intkey.Itab.find c.heads s ~default:(-1) in
        if head < 0 then [||]
        else
          Mutex.protect c.dmutex (fun () ->
              match Hashtbl.find_opt c.dec s with
              | Some rows -> rows
              | None ->
                  let rows = chain_rows c head in
                  Hashtbl.add c.dec s rows;
                  rows)

let group_count t k =
  Obs.tick c_probes;
  match t.impl with
  | Rows table -> (
      match H.find_opt table k with Some g -> g.total | None -> 0)
  | Cols c ->
      let s = probe_sig c k in
      if s < 0 then 0 else Intkey.Itab.find c.ccounts s ~default:0

let max_group_count t =
  match t.impl with
  | Rows table -> H.fold (fun _ g acc -> Count.max g.total acc) table Count.zero
  | Cols c ->
      Intkey.Itab.fold (fun _ cnt acc -> Count.max cnt acc) c.ccounts Count.zero

(* Rough retained size in words, for cache weighting: ~3 words per
   indexed row plus per-group overhead. Computed without decoding — the
   row walk touches only table sizes, the columnar one only counters. *)
let approx_words t =
  match t.impl with
  | Rows table ->
      H.fold (fun _ g words -> words + 8 + (3 * Array.length g.rows)) table 0
  | Cols c ->
      (8 * Intkey.Itab.length c.heads) + (3 * Colrel.nrows c.crel)

let iter_groups f t =
  match t.impl with
  | Rows table -> H.iter (fun k g -> f k g.rows) table
  | Cols c ->
      Intkey.Itab.iter
        (fun _ head ->
          let rows = chain_rows c head in
          f (Tuple.project c.kpos (fst rows.(0))) rows)
        c.heads
