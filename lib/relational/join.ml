(* All operators hash the right side on the common attributes and
   stream the left side through it. The combined tuple layout is
   always: left tuple ++ (right tuple minus common attributes), matching
   [Schema.union left right].

   Each operator hashes an emitted row at most once and sorts its result
   once: rows go to {!Relation.of_grouped}, never back through
   {!Relation.create}'s checks and regrouping. The intermediates of
   [join_project_all] are not sorted at all. *)

let c_rows = Obs.counter "join.rows_emitted"
let g_groups = Obs.gauge "join.max_group_table_rows"

(* Emitting is the per-row hot path: only interpose on it when the sink
   is live, so the disabled cost stays at the operators' entry branches. *)
let instrument_emit emit =
  if not (Obs.enabled ()) then emit
  else fun ltup rtup cnt ->
    Obs.tick c_rows;
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

(* The probe loop: stream the left rows through the right
   side's index and hand each matching pair, with its product count, to
   [emit]. A product that saturates from finite counts ticks
   count.saturations; one carrying an already saturated count does not. *)
let probe plan left_rows b emit =
  let idx = build_right_index plan b in
  Array.iter
    (fun (ltup, lcnt) ->
      let key = Tuple.project plan.common_left ltup in
      Array.iter
        (fun (rtup, rcnt) -> emit ltup rtup (Count.mul_tracked lcnt rcnt))
        (Index.lookup idx key))
    left_rows

(* A natural join's rows are distinct without grouping: the combined
   tuple determines both the left row and the right one. *)
let natural_join a b =
  Obs.span "join.stream" @@ fun () ->
  let plan = make_plan (Relation.schema a) (Relation.schema b) in
  let acc = ref [] in
  probe plan (Relation.rows a) b
    (instrument_emit (fun ltup rtup cnt ->
         acc := (combine plan ltup rtup, cnt) :: !acc));
  Relation.of_grouped plan.combined (Array.of_list !acc)

(* Where each group attribute is read from a matching pair: [s >= 0] is
   position [s] of the left tuple, [s < 0] position [-s - 1] of the right
   one. Common attributes read the left side. Computed once per plan. *)
let key_sources group left right =
  Schema.attrs group
  |> List.map (fun attr ->
         match Schema.index_opt attr left with
         | Some i -> i
         | None -> -Schema.index attr right - 1)
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

(* The grouped-join step: γ_group(left ⋈ b) for a left side given as a
   schema and its distinct rows, in any order. Each emitted row is
   hashed once into the group table; the groups come back distinct but
   unsorted, so a step whose output is only streamed again skips the
   sort. The callers open its span. *)
let grouped_step ~group (left, left_rows) b =
  let plan = make_plan left (Relation.schema b) in
  if not (Schema.subset group plan.combined) then
    Errors.schema_errorf "join_project: %a not a subset of joined schema %a"
      Schema.pp group Schema.pp plan.combined;
  let src = key_sources group left (Relation.schema b) in
  let table = Relation.groups 1024 in
  probe plan left_rows b
    (instrument_emit (fun ltup rtup cnt ->
         Relation.accumulate table (group_key src ltup rtup) cnt));
  let rows = Relation.drain table in
  Obs.observe g_groups (Array.length rows);
  rows

(* A step whose output is kept: its groups sorted into a relation. *)
let grouped_join ~group left b =
  Obs.span "join.project" @@ fun () ->
  Relation.of_grouped group (grouped_step ~group left b)

let join_project ~group a b =
  grouped_join ~group (Relation.schema a, Relation.rows a) b

let join_all = function
  | [] -> invalid_arg "Join.join_all: empty list"
  | r :: rest -> List.fold_left natural_join r rest

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
         in a relation joined later. Grouping intermediates onto this
         set preserves the final grouped counts; the last join groups
         onto [group] itself, in its order. An intermediate is only the
         streamed side of the next join, so it stays an unsorted row
         array; only the result is sorted. *)
      let rec loop acc r = function
        | [] -> grouped_join ~group acc r
        | next :: later as remaining ->
            let still_needed =
              List.fold_left
                (fun s rel -> Schema.union s (Relation.schema rel))
                group remaining
            in
            let keep =
              Schema.inter (Schema.union (fst acc) (Relation.schema r))
                still_needed
            in
            let rows =
              Obs.span "join.project" @@ fun () ->
              grouped_step ~group:keep acc r
            in
            loop (keep, rows) next later
      in
      loop (Relation.schema first, Relation.rows first) second rest

let semijoin a b =
  let common = Schema.inter (Relation.schema a) (Relation.schema b) in
  let positions = Schema.positions ~sub:common (Relation.schema a) in
  let idx = Index.build ~key:common b in
  Relation.filter
    (fun _schema tup ->
      Index.group_count idx (Tuple.project positions tup) > 0)
    a
