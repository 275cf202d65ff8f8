open Tsens_relational
open Tsens_query

type plan = Leaf of string | Join of plan * plan

let rec plan_atoms = function
  | Leaf r -> [ r ]
  | Join (l, r) -> plan_atoms l @ plan_atoms r

(* Structural fingerprint: unlike the flat atom list, this distinguishes
   differently-shaped plans over the same atoms — ((a*b)*c) vs (a*(b*c))
   give different mf bounds, so the memo must not collapse them into one
   key. *)
let rec plan_fingerprint = function
  | Leaf r -> r
  | Join (l, r) ->
      "(" ^ plan_fingerprint l ^ "*" ^ plan_fingerprint r ^ ")"

let left_deep = function
  | [] -> invalid_arg "Elastic: empty plan"
  | first :: rest -> List.fold_left (fun acc r -> Join (acc, r)) first rest

let plan_of_ghd ghd =
  let tree = Ghd.bag_tree ghd in
  let atoms =
    List.concat_map (Ghd.members ghd) (Join_tree.post_order tree)
  in
  left_deep (List.map (fun a -> Leaf a) atoms)

let plan_of_cq ?plans cq =
  left_deep
    (List.map
       (fun component -> plan_of_ghd (Yannakakis.plan_for ?plans component))
       (Cq.components cq))

let rec plan_schema cq = function
  | Leaf r -> Cq.schema_of cq r
  | Join (l, r) -> Schema.union (plan_schema cq l) (plan_schema cq r)

(* mf(plan, A): static bound on the multiplicity of any valuation of A in
   the plan's output. For a join, fixing A on one side bounds the side's
   matches; each match pins the join attributes, bounding the other
   side's fan-out; the two orientations give two bounds and we keep the
   smaller. The recursion branches four ways per join node, so results
   are memoized on (sub-plan, attribute set) — sub-plans are identified
   by their atom list, which is unique in a self-join-free query. *)
let c_mf_evals = Obs.counter "elastic.mf_evals"
let c_memo_hits = Obs.counter "elastic.memo_hits"

let max_frequency_memo cq db =
  let memo = Hashtbl.create 64 in
  let rec mf plan attrs =
    let fingerprint = plan_fingerprint plan in
    let key = (fingerprint, Schema.attrs attrs) in
    match Hashtbl.find_opt memo key with
    | Some c ->
        Obs.tick c_memo_hits;
        c
    | None ->
        Obs.tick c_mf_evals;
        let result =
          match plan with
          | Leaf r ->
              let rel = Database.find r db in
              let over = Schema.inter attrs (Relation.schema rel) in
              Relation.max_frequency ~over rel
          | Join (l, r) ->
              let sl = plan_schema cq l and sr = plan_schema cq r in
              let join_attrs = Schema.inter sl sr in
              let pinned = Schema.union join_attrs attrs in
              let left =
                (mf l (Schema.inter attrs sl), mf r (Schema.inter pinned sr))
              and right =
                (mf r (Schema.inter attrs sr), mf l (Schema.inter pinned sl))
              in
              (* Pick the smaller orientation untracked, so only the one
                 the bound keeps can tick a saturation. *)
              let product (a, b) = Count.mul a b in
              let a, b =
                if product left <= product right then left else right
              in
              Count.mul_tracked a b
        in
        Hashtbl.replace memo key result;
        result
  in
  mf

let relation_sensitivity_with mf cq plan target =
  let rec sens plan =
    match plan with
    | Leaf r ->
        if String.equal r target then Count.one
        else
          Errors.schema_errorf "Elastic: relation %s is not in this sub-plan"
            target
    | Join (l, r) ->
        let sl = plan_schema cq l and sr = plan_schema cq r in
        let join_attrs = Schema.inter sl sr in
        if List.exists (String.equal target) (plan_atoms l) then
          Count.mul_tracked (sens l) (mf r (Schema.inter join_attrs sr))
        else Count.mul_tracked (sens r) (mf l (Schema.inter join_attrs sl))
  in
  sens plan

let relation_sensitivity cq db plan target =
  relation_sensitivity_with (max_frequency_memo cq db) cq plan target

let local_sensitivity ?plans cq db =
  Obs.span "elastic.analyze" @@ fun () ->
  let db = Database.of_list (Cq.instance cq db) in
  let plan = plan_of_cq ?plans cq in
  (* One memo for every relation: their sensitivities share most of
     the mf bounds they multiply. *)
  let mf = max_frequency_memo cq db in
  let per_relation =
    List.map
      (fun r -> (r, relation_sensitivity_with mf cq plan r))
      (Cq.relation_names cq)
  in
  let local_sensitivity =
    List.fold_left (fun acc (_, c) -> Count.max acc c) Count.zero per_relation
  in
  { Sens_types.local_sensitivity; witness = None; per_relation }
