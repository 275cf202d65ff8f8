type t = {
  schema : Schema.t;
  rows : (Tuple.t * Count.t) array;
}

module T = Tuple.Tbl

let by_tuple (a, _) (b, _) = Tuple.compare a b

(* The trusted constructor every kernel output goes through: the caller
   guarantees distinct tuples of the right arity with positive counts, so
   the only canonicalization left is the sort. Rows that arrive sorted
   skip it; for anything else the scan stops at the first descent. The
   sort is the stdlib's merge sort, which makes fewer comparisons than
   its heap sort; the rows are distinct, so stability changes nothing. *)
let of_grouped schema rows =
  let n = Array.length rows in
  let i = ref 1 in
  while !i < n && by_tuple rows.(!i - 1) rows.(!i) < 0 do
    incr i
  done;
  if !i < n then Array.stable_sort by_tuple rows;
  { schema; rows }

(* A grouping table: one mutable cell per distinct tuple, so each
   accumulated pair costs one hash lookup (two only when it opens a
   group). Every grouping in the library goes through it: [normalize],
   [project], [max_frequency] and [Join]'s grouped join. *)
type groups = Count.t ref T.t

let groups n : groups = T.create n

let accumulate (table : groups) tup cnt =
  match T.find_opt table tup with
  | Some cell -> cell := Count.add_tracked !cell cnt
  | None -> T.add table tup (ref cnt)

let drain (table : groups) =
  let rows = Array.make (T.length table) ([||], Count.zero) in
  let i = ref 0 in
  T.iter
    (fun tup cell ->
      rows.(!i) <- (tup, !cell);
      incr i)
    table;
  rows

(* The rows of [rows] keyed by [positions], summed per key. *)
let group_on positions rows =
  let table = groups (max 16 (Array.length rows)) in
  Array.iter
    (fun (tup, cnt) -> accumulate table (Tuple.project positions tup) cnt)
    rows;
  table

(* Merge duplicate tuples and sort: the canonical form for rows from
   outside the library (their counts are checked positive first). *)
let normalize schema pairs =
  let table = groups (max 16 (List.length pairs)) in
  List.iter (fun (tup, cnt) -> accumulate table tup cnt) pairs;
  of_grouped schema (drain table)

let check_row schema (tup, cnt) =
  if Tuple.arity tup <> Schema.arity schema then
    Errors.data_errorf "row arity %d does not match schema %a"
      (Tuple.arity tup) Schema.pp schema;
  if cnt <= 0 then
    Errors.data_errorf "non-positive multiplicity %d for tuple %a" cnt
      Tuple.pp tup

let create ~schema pairs =
  List.iter (check_row schema) pairs;
  normalize schema pairs

let of_tuples ~schema tuples = create ~schema (List.map (fun t -> (t, 1)) tuples)

let of_rows ~schema rows =
  of_tuples ~schema (List.map Tuple.of_list rows)

let empty schema = { schema; rows = [||] }

let schema r = r.schema
let rows r = r.rows

let cardinality r =
  Array.fold_left (fun acc (_, c) -> Count.add_tracked acc c) Count.zero r.rows

let distinct_count r = Array.length r.rows
let is_empty r = Array.length r.rows = 0

(* Rows are sorted, so point lookups binary-search: [lower_bound] is the
   first slot whose tuple is not below [tup]. *)
let lower_bound tup r =
  let lo = ref 0 and hi = ref (Array.length r.rows) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Tuple.compare (fst r.rows.(mid)) tup < 0 then lo := mid + 1
    else hi := mid
  done;
  !lo

let find_index tup r =
  let i = lower_bound tup r in
  if i < Array.length r.rows && Tuple.equal (fst r.rows.(i)) tup then i else -1

let mem tup r = find_index tup r >= 0
let count_of tup r = match find_index tup r with -1 -> 0 | i -> snd r.rows.(i)

let fold f r init =
  Array.fold_left (fun acc (tup, cnt) -> f tup cnt acc) init r.rows

let iter f r = Array.iter (fun (tup, cnt) -> f tup cnt) r.rows

let c_projected = Obs.counter "relation.rows_projected"

(* A pure column permutation keeps rows distinct: re-key and sort, no
   hashing. *)
let permute target r =
  let positions = Schema.positions ~sub:target r.schema in
  of_grouped target
    (Array.map (fun (tup, cnt) -> (Tuple.project positions tup, cnt)) r.rows)

let project target r =
  if Schema.equal target r.schema then r
  else
    Obs.span "relation.project" @@ fun () ->
    Obs.add c_projected (Array.length r.rows);
    if not (Schema.subset target r.schema) then
      Errors.schema_errorf "project: %a is not a subset of %a" Schema.pp target
        Schema.pp r.schema;
    if Schema.arity target = Schema.arity r.schema then permute target r
    else
      of_grouped target
        (drain (group_on (Schema.positions ~sub:target r.schema) r.rows))

let filter pred r =
  let rows =
    Array.to_list r.rows |> List.filter (fun (tup, _) -> pred r.schema tup)
  in
  { r with rows = Array.of_list rows }

let rename mapping r = { r with schema = Schema.rename mapping r.schema }

let scale factor r =
  if factor <= 0 then Errors.data_errorf "scale: non-positive factor %d" factor;
  {
    r with
    rows = Array.map (fun (t, c) -> (t, Count.mul_tracked c factor)) r.rows;
  }

(* Point updates edit the sorted rows at the slot the binary search
   finds: no hashing and no sort. *)
let add ?(count = 1) tup r =
  check_row r.schema (tup, count);
  let i = lower_bound tup r in
  let n = Array.length r.rows in
  if i < n && Tuple.equal (fst r.rows.(i)) tup then begin
    let rows = Array.copy r.rows in
    rows.(i) <- (tup, Count.add_tracked (snd rows.(i)) count);
    { r with rows }
  end
  else
    {
      r with
      rows =
        Array.init (n + 1) (fun j ->
            if j < i then r.rows.(j)
            else if j = i then (tup, count)
            else r.rows.(j - 1));
    }

(* Clamp semantics: removing more copies than are stored empties the row
   and leaves the rest of the relation untouched. The alternative —
   raising — would make the naive sensitivity oracle's "delete one
   candidate" probes partial, so over-removal is defined, not an error;
   only a non-positive [count] is rejected. Pinned by
   test_relation's remove suite. *)
let remove ?(count = 1) tup r =
  if count <= 0 then
    Errors.data_errorf "remove: non-positive count %d for tuple %a" count
      Tuple.pp tup;
  match find_index tup r with
  | -1 -> r
  | i ->
      let existing = snd r.rows.(i) in
      if count < existing then begin
        let rows = Array.copy r.rows in
        rows.(i) <- (fst rows.(i), existing - count);
        { r with rows }
      end
      else
        let n = Array.length r.rows in
        {
          r with
          rows =
            Array.append (Array.sub r.rows 0 i)
              (Array.sub r.rows (i + 1) (n - i - 1));
        }

let max_row r =
  Array.fold_left
    (fun best (tup, cnt) ->
      match best with
      | None -> Some (tup, cnt)
      | Some (_, best_cnt) -> if cnt > best_cnt then Some (tup, cnt) else best)
    None r.rows

(* The largest group count, read off the grouping table: no projected
   relation is built or sorted. *)
let max_frequency ~over r =
  if Schema.arity over = 0 then cardinality r
  else if Schema.equal_as_sets over r.schema then
    (* [over] holds every column: the rows are the groups. *)
    fold (fun _ c acc -> Count.max c acc) r Count.zero
  else
    T.fold
      (fun _ cell acc -> Count.max !cell acc)
      (group_on (Schema.positions ~sub:over r.schema) r.rows)
      Count.zero

let active_domain attr r =
  let pos = Schema.index attr r.schema in
  let seen = Value.Tbl.create 64 in
  Array.iter (fun (tup, _) -> Value.Tbl.replace seen (Tuple.get tup pos) ()) r.rows;
  Value.Tbl.fold (fun v () acc -> v :: acc) seen []
  |> List.sort Value.compare

let equal a b =
  Schema.equal a.schema b.schema
  && Array.length a.rows = Array.length b.rows
  && Array.for_all2
       (fun (t1, c1) (t2, c2) -> Tuple.equal t1 t2 && Count.equal c1 c2)
       a.rows b.rows

(* The identity shortcut saves a copy: [Cq.instance] reorders every
   atom's columns, and most stored schemas already match. *)
let reorder target r =
  if Schema.equal target r.schema then r
  else begin
    if not (Schema.equal_as_sets target r.schema) then
      Errors.schema_errorf "reorder: %a and %a hold different attributes"
        Schema.pp target Schema.pp r.schema;
    permute target r
  end

let equal_semantic a b =
  Schema.equal_as_sets a.schema b.schema && equal a (reorder a.schema b)

let pp ppf r =
  Format.fprintf ppf "@[<v>%a | cnt@," Schema.pp r.schema;
  Array.iter
    (fun (tup, cnt) -> Format.fprintf ppf "%a | %a@," Tuple.pp tup Count.pp cnt)
    r.rows;
  Format.fprintf ppf "@]"

let pp_summary ppf r =
  Format.fprintf ppf "%a: %d distinct, %a total" Schema.pp r.schema
    (distinct_count r) Count.pp (cardinality r)
