open Tsens_relational
open Tsens_query

type plan = Leaf of string | Join of plan * plan

let rec plan_atoms = function
  | Leaf r -> [ r ]
  | Join (l, r) -> plan_atoms l @ plan_atoms r

(* Structural fingerprint: unlike the flat atom list, this distinguishes
   differently-shaped plans over the same atoms — ((a*b)*c) vs (a*(b*c))
   give different mf bounds, so a cache shared across plans must not
   collapse them into one key. *)
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

let plan_of_cq ?(plans = []) cq =
  let component_plan component =
    match Yannakakis.find_plan plans component with
    | Some g -> plan_of_ghd g
    | None -> (
        match Join_tree.of_cq component with
        | Some jt -> plan_of_ghd (Ghd.of_join_tree jt)
        | None -> plan_of_ghd (Ghd.auto component))
  in
  left_deep (List.map component_plan (Cq.components cq))

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

(* Cross-call mf store. Bounds are pure functions of (plan structure,
   attribute set, relation contents); contents compress to version
   stamps, so entries for a mutated database can never be hit — the
   mutated relation carries a fresh stamp. The per-call Hashtbl below
   remains as a lock-free L1 in front of this store. *)
let mf_store : Count.t Cache.Store.t =
  Cache.Store.create ~name:"elastic.mf" ~capacity:4096
    ~weight:(fun _ -> 3 * 8)
    ()

let max_frequency_memo ?versions cq db =
  (* The version stamps identifying the relation contents behind the
     bounds. Callers that probe a reordered instance (local_sensitivity)
     pass the original relations' stamps explicitly — mf is invariant
     under column order, and the original stamps are the stable ones.
     Derivation is best-effort: a database missing query relations
     simply bypasses the shared store so the Leaf lookup still raises
     the uncached error. *)
  let versions_key =
    match versions with
    | Some v -> Some (Cache.Key.versions v)
    | None ->
        if not (Cache.enabled ()) then None
        else begin
          match
            List.map
              (fun r ->
                match Database.find_opt r db with
                | Some rel -> (r, Relation.version rel)
                | None -> raise Exit)
              (Cq.relation_names cq)
          with
          | v -> Some (Cache.Key.versions v)
          | exception Exit -> None
        end
  in
  let memo = Hashtbl.create 64 in
  let rec mf plan attrs =
    let fingerprint = plan_fingerprint plan in
    let key = (fingerprint, Schema.attrs attrs) in
    match Hashtbl.find_opt memo key with
    | Some c ->
        Obs.tick c_memo_hits;
        c
    | None ->
        let compute () =
          Obs.tick c_mf_evals;
          match plan with
          | Leaf r ->
              let rel = Database.find r db in
              let over = Schema.inter attrs (Relation.schema rel) in
              Relation.max_frequency ~over rel
          | Join (l, r) ->
              let sl = plan_schema cq l and sr = plan_schema cq r in
              let join_attrs = Schema.inter sl sr in
              let pinned = Schema.union join_attrs attrs in
              let bound_left =
                Count.mul
                  (mf l (Schema.inter attrs sl))
                  (mf r (Schema.inter pinned sr))
              in
              let bound_right =
                Count.mul
                  (mf r (Schema.inter attrs sr))
                  (mf l (Schema.inter pinned sl))
              in
              min bound_left bound_right
        in
        let result =
          match versions_key with
          | None -> compute ()
          | Some vk ->
              Cache.Store.find_or_add mf_store
                (Cache.Key.of_parts
                   [ fingerprint; Schema.to_string attrs; vk ])
                compute
        in
        Hashtbl.replace memo key result;
        result
  in
  mf

let max_frequency cq db plan attrs = max_frequency_memo cq db plan attrs

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
          Count.mul (sens l) (mf r (Schema.inter join_attrs sr))
        else Count.mul (sens r) (mf l (Schema.inter join_attrs sl))
  in
  sens plan

let relation_sensitivity cq db plan target =
  relation_sensitivity_with (max_frequency_memo cq db) cq plan target

let local_sensitivity ?plans cq db =
  Obs.span "elastic.analyze" @@ fun () ->
  (* Stamp the key off the caller's relations before [Cq.instance]
     reorders columns: a reorder mints a fresh relation (fresh stamp)
     per call, but mf is column-order invariant, so the original stamps
     are the ones under which repeated calls hit the shared store. *)
  let versions =
    List.map
      (fun r -> (r, Relation.version (Database.find r db)))
      (Cq.relation_names cq)
  in
  let db = Database.of_list (Cq.instance cq db) in
  let plan = plan_of_cq ?plans cq in
  (* One memo for every relation: their sensitivities share most of
     the mf bounds they multiply. *)
  let mf = max_frequency_memo ~versions cq db in
  let per_relation =
    List.map
      (fun r -> (r, relation_sensitivity_with mf cq plan r))
      (Cq.relation_names cq)
  in
  let local_sensitivity =
    List.fold_left (fun acc (_, c) -> Count.max acc c) Count.zero per_relation
  in
  { Sens_types.local_sensitivity; witness = None; per_relation }
