(* Dictionary-encoded columnar relations: the storage format behind
   TSENS_STORAGE=columnar. A relation becomes one [int array] per
   attribute (cells are {!Dict} ids) plus a parallel multiplicity array,
   so the join and group-by kernels compare, hash and move nothing but
   immediate ints; values are decoded back to [Value.t] only at the
   row-relation boundary ({!decode_rows}), i.e. when a result becomes a
   {!Relation.t} again for reports, CSV export or the row-mode oracle.

   The row set of a [t] is distinct (one entry per distinct tuple) —
   constructors either start from normalized relation rows or group
   before building. [generation] records the {!Dict} generation the ids
   were assigned under; readers must discard a [t] whose generation is
   stale (the dictionary was reset) instead of decoding through the
   wrong mapping. *)

type t = {
  schema : Schema.t;
  nrows : int;
  cols : int array array; (* arity columns of length nrows, column-major *)
  counts : Count.t array; (* length nrows *)
  generation : int;
}

let schema t = t.schema
let nrows t = t.nrows
let col t j = t.cols.(j)
let count t i = t.counts.(i)
let counts t = t.counts
let generation t = t.generation
let arity t = Array.length t.cols

let make ~schema ~cols ~counts =
  let nrows = Array.length counts in
  assert (Array.for_all (fun c -> Array.length c = nrows) cols);
  assert (Array.length cols = Schema.arity schema);
  { schema; nrows; cols; counts; generation = Dict.generation () }

(* Encode rows as handed over (no grouping): the input is either already
   normalized relation rows or raw pairs that [group_self] merges next. *)
let of_pairs schema (pairs : (Tuple.t * Count.t) array) =
  let arity = Schema.arity schema in
  let n = Array.length pairs in
  let cols = Array.init arity (fun _ -> Array.make n 0) in
  let counts = Array.make n 0 in
  Dict.with_interner (fun intern ->
      for i = 0 to n - 1 do
        let tup, cnt = pairs.(i) in
        for j = 0 to arity - 1 do
          cols.(j).(i) <- intern (Tuple.get tup j)
        done;
        counts.(i) <- cnt
      done);
  { schema; nrows = n; cols; counts; generation = Dict.generation () }

let decode_row t i =
  Array.init (arity t) (fun j -> Dict.value t.cols.(j).(i))

let decode_rows t =
  Array.init t.nrows (fun i -> (decode_row t i, t.counts.(i)))

(* Rows gathered through a permutation (or any index selection). *)
let permute t order =
  let gather col = Array.map (fun i -> col.(i)) order in
  {
    t with
    nrows = Array.length order;
    cols = Array.map gather t.cols;
    counts = Array.map (fun i -> t.counts.(i)) order;
  }

(* ------------------------------------------------------------------ *)
(* Integer-domain group-by: the γ kernel. Groups the rows by the listed
   source columns, sums multiplicities (saturating), and rebuilds dense
   columns from one representative per group. Non-positive totals are
   dropped, mirroring the row engine's normalization guard. *)

let group_by ~schema positions t =
  let k = Array.length positions in
  let n = t.nrows in
  if k = 0 then begin
    (* γ over no attributes: one nullary row carrying the bag total. *)
    let total = Array.fold_left Count.add_tracked Count.zero t.counts in
    if n = 0 || total <= 0 then
      { schema; nrows = 0; cols = [||]; counts = [||];
        generation = t.generation }
    else
      { schema; nrows = 1; cols = [||]; counts = [| total |];
        generation = t.generation }
  end
  else if k = 1 then begin
    let src = t.cols.(positions.(0)) in
    let tab = Intkey.Itab.create n in
    for i = 0 to n - 1 do
      Intkey.Itab.add_count tab src.(i) t.counts.(i)
    done;
    let ids = Intkey.Ibuf.create (Intkey.Itab.length tab) in
    let counts = Intkey.Ibuf.create (Intkey.Itab.length tab) in
    Intkey.Itab.iter
      (fun id c ->
        if c > 0 then begin
          Intkey.Ibuf.push ids id;
          Intkey.Ibuf.push counts c
        end)
      tab;
    {
      schema;
      nrows = Intkey.Ibuf.length ids;
      cols = [| Intkey.Ibuf.to_array ids |];
      counts = Intkey.Ibuf.to_array counts;
      generation = t.generation;
    }
  end
  else begin
    let srcs = Array.map (fun p -> t.cols.(p)) positions in
    let kd = Intkey.Keydict.create ~arity:k n in
    let sums = Intkey.Ibuf.create n in
    let scratch = Array.make k 0 in
    for i = 0 to n - 1 do
      for j = 0 to k - 1 do
        scratch.(j) <- srcs.(j).(i)
      done;
      let g = Intkey.Keydict.lookup_or_add kd scratch in
      if g = Intkey.Ibuf.length sums then Intkey.Ibuf.push sums t.counts.(i)
      else
        Intkey.Ibuf.set sums g
          (Count.add_tracked (Intkey.Ibuf.get sums g) t.counts.(i))
    done;
    let groups = Intkey.Keydict.length kd in
    let keep = Intkey.Ibuf.create groups in
    for g = 0 to groups - 1 do
      if Intkey.Ibuf.get sums g > 0 then Intkey.Ibuf.push keep g
    done;
    let kept = Intkey.Ibuf.to_array keep in
    let cols =
      Array.init k (fun j ->
          Array.map (fun g -> Intkey.Keydict.get kd g j) kept)
    in
    let counts = Array.map (fun g -> Intkey.Ibuf.get sums g) kept in
    { schema; nrows = Array.length kept; cols; counts;
      generation = t.generation }
  end

let group_self t =
  group_by ~schema:t.schema (Array.init (arity t) Fun.id) t
