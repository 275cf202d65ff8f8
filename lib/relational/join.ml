(* All operators hash the right side on the common attributes and
   stream the left side through it. The combined tuple layout is
   always: left tuple ++ (right tuple minus common attributes), matching
   [Schema.union left right].

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

(* The probe loop: stream the left side through the right
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

(* A natural join's rows are distinct without grouping: the combined
   tuple determines both the left row and the right one. *)
let natural_join a b =
  Obs.span "join.stream" @@ fun () ->
  let plan = make_plan (Relation.schema a) (Relation.schema b) in
  let acc = ref [] in
  probe plan a b
    (instrument_emit (fun ltup rtup cnt ->
         acc := (combine plan ltup rtup, cnt) :: !acc));
  Relation.of_grouped plan.combined (Array.of_list !acc)

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
  | Some cell -> cell := Count.add_tracked !cell cnt
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

let join_project ~group a b =
  Obs.span "join.project" @@ fun () ->
  let plan = make_plan (Relation.schema a) (Relation.schema b) in
  if not (Schema.subset group plan.combined) then
    Errors.schema_errorf "join_project: %a not a subset of joined schema %a"
      Schema.pp group Schema.pp plan.combined;
  let src = key_sources group a b in
  let table = H.create 1024 in
  probe plan a b
    (instrument_emit (fun ltup rtup cnt ->
         accumulate table (group_key src ltup rtup) cnt));
  Relation.of_grouped group (grouped_rows table)

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
  let total = ref Count.zero in
  let plan = make_plan (Relation.schema a) (Relation.schema b) in
  let idx = build_right_index plan b in
  Relation.iter
    (fun ltup lcnt ->
      let key = Tuple.project plan.common_left ltup in
      let group = Index.group_count idx key in
      total := Count.add_tracked !total (Count.mul_tracked lcnt group))
    a;
  !total
