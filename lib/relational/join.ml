(* All operators hash-partition the right side on the common attributes
   and stream the left side through it. The combined tuple layout is
   always: left tuple ++ (right tuple minus common attributes), matching
   [Schema.union left right].

   Above the parallel cutoff the binary operators switch to a
   partition-parallel plan: both sides are hash-partitioned on the
   join-key hash into one bucket per pool domain, bucket k of the left
   joins bucket k of the right on its own domain (equal keys always meet
   — they share a hash), and the per-partition results merge in bucket
   order at the barrier. Saturating count addition is associative and
   commutative and every output is sorted once, so outputs are
   bit-identical to the sequential plan at any job count.

   Each operator hashes an emitted row at most once and sorts its output
   once: rows go to {!Relation.of_grouped}, never back through
   {!Relation.create}'s checks and regrouping. *)

let c_rows = Obs.counter "join.rows_emitted"
let c_sat = Obs.counter "count.saturations"
let g_groups = Obs.gauge "join.max_group_table_rows"

(* Emitting is the per-row hot path: only interpose on it when the sink
   is live, so the disabled cost stays at the operators' entry branches. *)
let instrument_emit emit =
  if not (Obs.enabled ()) then emit
  else fun ltup rtup cnt ->
    Obs.tick c_rows;
    if Count.is_saturated cnt then Obs.tick c_sat;
    emit ltup rtup cnt

(* Aggregation can saturate even when every emitted row is finite: a
   per-group sum crosses max_count inside the grouping table, which the
   emit instrumentation above never sees. Tick the saturation counter at
   the transition (both operands finite, sum saturated) so overflow that
   happens in group-by — not in emission — still reaches the report. *)
let add_tracked prev cnt =
  let sum = Count.add prev cnt in
  if
    Obs.enabled ()
    && Count.is_saturated sum
    && not (Count.is_saturated prev)
    && not (Count.is_saturated cnt)
  then Obs.tick c_sat;
  sum

type plan = {
  combined : Schema.t;
  common_left : int array; (* positions of common attrs in the left schema *)
  right_extra : int array; (* positions of right-only attrs in the right schema *)
  common_right : Schema.t; (* common attrs, left order; index key and probe agree *)
}

let make_plan left right =
  let common = Schema.inter left right in
  let combined = Schema.union left right in
  let right_only = Schema.diff right left in
  {
    combined;
    common_left = Schema.positions ~sub:common left;
    right_extra = Schema.positions ~sub:right_only right;
    common_right = common;
  }

(* The index key is the common schema *in left order* so that probing with
   a left-side projection matches. *)
let build_right_index plan right_rel =
  Index.build ~key:plan.common_right right_rel

let combine plan left_tup right_tup =
  Tuple.concat left_tup (Tuple.project plan.right_extra right_tup)

(* The sequential probe loop: stream the left side through the right
   side's index and hand each matching pair, with its product count, to
   [emit]. *)
let probe plan a b emit =
  let idx = build_right_index plan b in
  Relation.iter
    (fun ltup lcnt ->
      let key = Tuple.project plan.common_left ltup in
      Array.iter
        (fun (rtup, rcnt) -> emit ltup rtup (Count.mul lcnt rcnt))
        (Index.lookup idx key))
    a

module H = Tuple.Tbl

(* ------------------------------------------------------------------ *)
(* The partition-parallel core. [emit_partition] receives one partition
   id plus the per-partition probe driver and returns that partition's
   result; results are combined in partition order by the caller. The
   driver builds a local hash table of the right bucket and streams the
   left bucket through it — the same plan as [probe], confined to
   one bucket. Emission is by matching pair, as in [probe]. *)

let partitioned plan a b emit_partition =
  let parts = Exec.jobs () in
  let project_keys positions rel =
    let rows = Relation.rows rel in
    let keys =
      Exec.parallel_map (fun (tup, _) -> Tuple.project positions tup) rows
    in
    let buckets = Exec.parallel_map (fun k -> Tuple.bucket k parts) keys in
    (rows, keys, buckets)
  in
  let right_positions =
    Schema.positions ~sub:plan.common_right (Relation.schema b)
  in
  let left = project_keys plan.common_left a in
  let right = project_keys right_positions b in
  let results = Array.make parts None in
  Exec.parallel_for ~chunks:parts 0 parts (fun p ->
      let drive emit =
        let rrows, rkeys, rbuckets = right in
        let index : (Tuple.t * Count.t) list H.t = H.create 64 in
        Array.iteri
          (fun j row ->
            if rbuckets.(j) = p then begin
              let prev = try H.find index rkeys.(j) with Not_found -> [] in
              H.replace index rkeys.(j) (row :: prev)
            end)
          rrows;
        let lrows, lkeys, lbuckets = left in
        Array.iteri
          (fun i (ltup, lcnt) ->
            if lbuckets.(i) = p then
              match H.find_opt index lkeys.(i) with
              | None -> ()
              | Some group ->
                  List.iter
                    (fun (rtup, rcnt) -> emit ltup rtup (Count.mul lcnt rcnt))
                    group
          )
          lrows
      in
      results.(p) <- Some (emit_partition p drive));
  Array.to_list results |> List.filter_map Fun.id

(* Total distinct rows on both sides: the size the parallel cutoff is
   judged against. *)
let pair_size a b = Relation.distinct_count a + Relation.distinct_count b

(* Each binary operator dispatches on the storage mode up front: the
   columnar kernels (Coljoin) run the same logical plan on dictionary
   ids and are bit-identical to the row implementations below, which
   stay as the always-available oracle (and the default). *)

(* A natural join's rows are distinct without grouping: the combined
   tuple determines both the left row and the right one. *)
let natural_join_rows a b =
  let plan = make_plan (Relation.schema a) (Relation.schema b) in
  let collect acc =
    instrument_emit (fun ltup rtup cnt ->
        acc := (combine plan ltup rtup, cnt) :: !acc)
  in
  if not (Exec.pays_off (pair_size a b)) then begin
    Obs.span "join.stream" @@ fun () ->
    let acc = ref [] in
    probe plan a b (collect acc);
    Relation.of_grouped plan.combined (Array.of_list !acc)
  end
  else
    Obs.span "join.partition" @@ fun () ->
    let per_partition =
      partitioned plan a b (fun _p drive ->
          let acc = ref [] in
          drive (collect acc);
          !acc)
    in
    Relation.of_grouped plan.combined
      (Array.of_list (List.concat per_partition))

let natural_join a b =
  if Storage.is_columnar () then
    Obs.span "join.columnar" @@ fun () -> Coljoin.natural_join a b
  else natural_join_rows a b

(* Where each group attribute is read from a matching pair: [s >= 0] is
   position [s] of the left tuple, [s < 0] position [-s - 1] of the right
   one. Common attributes read the left side. Computed once per plan. *)
let key_sources group a b =
  Schema.attrs group
  |> List.map (fun attr ->
         match Schema.index_opt attr (Relation.schema a) with
         | Some i -> i
         | None -> -Schema.index attr (Relation.schema b) - 1)
  |> Array.of_list

(* The group key of a matching pair, built straight from the two sides:
   no combined tuple is materialized. *)
let group_key src (ltup : Tuple.t) (rtup : Tuple.t) : Tuple.t =
  let n = Array.length src in
  if n = 0 then [||]
  else begin
    let s0 = src.(0) in
    let key = Array.make n (if s0 >= 0 then ltup.(s0) else rtup.(-s0 - 1)) in
    for i = 1 to n - 1 do
      let s = src.(i) in
      key.(i) <- (if s >= 0 then ltup.(s) else rtup.(-s - 1))
    done;
    key
  end

(* One mutable cell per distinct key, so each emitted row costs one hash
   lookup (two only when it opens a group). *)
let accumulate table key cnt =
  match H.find_opt table key with
  | Some cell -> cell := add_tracked !cell cnt
  | None -> H.add table key (ref cnt)

let grouped_rows table =
  Obs.observe g_groups (H.length table);
  let rows = Array.make (H.length table) ([||], Count.zero) in
  let i = ref 0 in
  H.iter
    (fun key cell ->
      rows.(!i) <- (key, !cell);
      incr i)
    table;
  rows

(* Group keys need not contain the join key, so one group can span
   partitions: sort the partials together once and sum each run of equal
   keys — order-free because saturating addition is. The result is
   sorted, so {!Relation.of_grouped} does not sort it again. *)
let merge_partials partials =
  let rows = Array.concat partials in
  Array.sort (fun (a, _) (b, _) -> Tuple.compare a b) rows;
  let n = Array.length rows in
  if n = 0 then rows
  else begin
    let last = ref 0 in
    for i = 1 to n - 1 do
      let key, cnt = rows.(i) and prev, acc = rows.(!last) in
      if Tuple.equal key prev then rows.(!last) <- (prev, add_tracked acc cnt)
      else begin
        incr last;
        rows.(!last) <- rows.(i)
      end
    done;
    Array.sub rows 0 (!last + 1)
  end

let join_project_rows ~group a b =
  let plan = make_plan (Relation.schema a) (Relation.schema b) in
  let src = key_sources group a b in
  let aggregate table =
    instrument_emit (fun ltup rtup cnt ->
        accumulate table (group_key src ltup rtup) cnt)
  in
  if not (Exec.pays_off (pair_size a b)) then begin
    let table = H.create 1024 in
    probe plan a b (aggregate table);
    Relation.of_grouped group (grouped_rows table)
  end
  else
    (* The gauge reports the largest per-partition table. *)
    let partials =
      partitioned plan a b (fun _p drive ->
          let table = H.create 1024 in
          drive (aggregate table);
          grouped_rows table)
    in
    Relation.of_grouped group (merge_partials partials)

let join_project ~group a b =
  Obs.span "join.project" @@ fun () ->
  let combined = Schema.union (Relation.schema a) (Relation.schema b) in
  if not (Schema.subset group combined) then
    Errors.schema_errorf "join_project: %a not a subset of joined schema %a"
      Schema.pp group Schema.pp combined;
  if Storage.is_columnar () then Coljoin.join_project ~group a b
  else join_project_rows ~group a b

let join_all = function
  | [] -> invalid_arg "Join.join_all: empty list"
  | r :: rest -> List.fold_left natural_join r rest

(* Sort-merge: both sides keyed by their common-attribute projection and
   sorted; equal-key runs pair up as block cross products. *)
let merge_join a b =
  Obs.span "join.merge" @@ fun () ->
  let plan = make_plan (Relation.schema a) (Relation.schema b) in
  let keyed rel positions =
    let rows = Relation.rows rel in
    let arr =
      Array.map (fun (tup, cnt) -> (Tuple.project positions tup, tup, cnt)) rows
    in
    Array.sort (fun (k1, t1, _) (k2, t2, _) ->
        match Tuple.compare k1 k2 with 0 -> Tuple.compare t1 t2 | c -> c)
      arr;
    arr
  in
  let right_positions =
    Schema.positions ~sub:plan.common_right (Relation.schema b)
  in
  let left = keyed a plan.common_left in
  let right = keyed b right_positions in
  let key (k, _, _) = k in
  (* End of the run of equal keys starting at [i]. *)
  let run_end arr i =
    let k = key arr.(i) in
    let j = ref (i + 1) in
    while !j < Array.length arr && Tuple.equal (key arr.(!j)) k do
      incr j
    done;
    !j
  in
  let out = ref [] in
  (* Instrument each row as it is emitted rather than re-walking the
     accumulated output afterwards. *)
  let emit =
    instrument_emit (fun ltup rtup cnt ->
        out := (combine plan ltup rtup, cnt) :: !out)
  in
  let i = ref 0 and j = ref 0 in
  while !i < Array.length left && !j < Array.length right do
    let c = Tuple.compare (key left.(!i)) (key right.(!j)) in
    if c < 0 then i := run_end left !i
    else if c > 0 then j := run_end right !j
    else begin
      let i_end = run_end left !i and j_end = run_end right !j in
      for li = !i to i_end - 1 do
        let _, ltup, lcnt = left.(li) in
        for rj = !j to j_end - 1 do
          let _, rtup, rcnt = right.(rj) in
          emit ltup rtup (Count.mul lcnt rcnt)
        done
      done;
      i := i_end;
      j := j_end
    end
  done;
  Relation.of_grouped plan.combined (Array.of_list !out)

(* Greedy connected ordering: start from the widest relation and keep
   picking a relation sharing attributes with the accumulated schema
   (most shared first), falling back to the widest remaining one when
   only cross products are left. The result is order-independent; the
   ordering only controls intermediate sizes — deferring cross products
   is the difference between |R|+|S| and |R|·|S| intermediates. *)
let connected_order rels =
  let rels = Array.of_list rels in
  let used = Array.make (Array.length rels) false in
  let pick better =
    let best = ref (-1) in
    Array.iteri
      (fun i r ->
        if (not used.(i)) && (!best < 0 || better r rels.(!best)) then best := i)
      rels;
    !best
  in
  let arity r = Schema.arity (Relation.schema r) in
  let ordered = ref [] in
  let acc_schema = ref Schema.empty in
  let take i =
    used.(i) <- true;
    acc_schema := Schema.union !acc_schema (Relation.schema rels.(i));
    ordered := rels.(i) :: !ordered
  in
  if Array.length rels > 0 then take (pick (fun a b -> arity a > arity b));
  for _ = 2 to Array.length rels do
    let overlap r = Schema.arity (Schema.inter (Relation.schema r) !acc_schema) in
    let i = pick (fun a b -> overlap a > overlap b) in
    let i =
      (* All remaining are disjoint from the accumulator: defer the cross
         product to the widest one. *)
      if overlap rels.(i) > 0 then i else pick (fun a b -> arity a > arity b)
    in
    take i
  done;
  List.rev !ordered

let join_project_all ~group rels =
  Obs.span "join.project_all" @@ fun () ->
  match connected_order rels with
  | [] -> invalid_arg "Join.join_project_all: empty list"
  | [ r ] -> Relation.project group r
  | first :: second :: rest ->
      (* Attributes needed downstream of a join: anything in [group] or
         in a relation joined later. Projecting intermediates onto this
         set preserves the final grouped counts; the last join groups
         onto [group] itself, in its order. *)
      let rec loop acc r = function
        | [] -> join_project ~group acc r
        | next :: later as remaining ->
            let still_needed =
              List.fold_left
                (fun s rel -> Schema.union s (Relation.schema rel))
                group remaining
            in
            let keep =
              Schema.inter
                (Schema.union (Relation.schema acc) (Relation.schema r))
                still_needed
            in
            loop (join_project ~group:keep acc r) next later
      in
      loop first second rest

let semijoin a b =
  let common = Schema.inter (Relation.schema a) (Relation.schema b) in
  let positions = Schema.positions ~sub:common (Relation.schema a) in
  let idx = Index.build ~key:common b in
  Relation.filter
    (fun _schema tup ->
      Index.group_count idx (Tuple.project positions tup) > 0)
    a

let count_join a b =
  Obs.span "join.count" @@ fun () ->
  if Storage.is_columnar () then Coljoin.count_join a b
  else if not (Exec.pays_off (pair_size a b)) then begin
    let total = ref Count.zero in
    let plan = make_plan (Relation.schema a) (Relation.schema b) in
    let idx = build_right_index plan b in
    Relation.iter
      (fun ltup lcnt ->
        let key = Tuple.project plan.common_left ltup in
        let group = Index.group_count idx key in
        total := add_tracked !total (Count.mul lcnt group))
      a;
    !total
  end
  else begin
    let plan = make_plan (Relation.schema a) (Relation.schema b) in
    let per_partition =
      partitioned plan a b (fun _p drive ->
          let total = ref Count.zero in
          drive (fun _ _ cnt -> total := add_tracked !total cnt);
          !total)
    in
    List.fold_left add_tracked Count.zero per_partition
  end
