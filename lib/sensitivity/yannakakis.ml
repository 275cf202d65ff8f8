open Tsens_relational
open Tsens_query

(* The join of a bag's member relations, columns as stored in [db]. *)
let bag_relation ghd db bag =
  let members = Ghd.members ghd bag in
  let rels = List.map (fun r -> Database.find r db) members in
  Join.join_all rels

let count_ghd ghd db =
  Cq.check_database (Ghd.cq ghd) db;
  let tree = Ghd.bag_tree ghd in
  (* Bottom-up: botjoin(v) = γ_link(v) (B_v ⋈ botjoins of children). *)
  let botjoins = Hashtbl.create 16 in
  List.iter
    (fun v ->
      let base = bag_relation ghd db v in
      let child_bots = List.map (Hashtbl.find botjoins) (Join_tree.children tree v) in
      let link = Join_tree.link_schema tree v in
      let bot = Join.join_project_all ~group:link (base :: child_bots) in
      Hashtbl.replace botjoins v bot)
    (Join_tree.post_order tree);
  let root_bot = Hashtbl.find botjoins (Join_tree.root tree) in
  (* The root's link schema is empty, so its botjoin is a nullary
     relation whose single count is |Q(D)| (or it is empty). *)
  Relation.cardinality root_bot

let find_plan plans component =
  (* Same atom names with the same attribute sets: queries over the same
     tables but different variable bindings (qw vs the 4-cycle) must not
     steal each other's plans. *)
  let matches g =
    let plan_cq = Ghd.cq g in
    let names l = List.sort String.compare (Cq.relation_names l) in
    names plan_cq = names component
    && List.for_all
         (fun r ->
           Schema.equal_as_sets (Cq.schema_of plan_cq r)
             (Cq.schema_of component r))
         (Cq.relation_names component)
  in
  List.find_opt matches plans

let plan_of_component component =
  match Join_tree.of_cq component with
  | Some jt -> Ghd.of_join_tree jt
  | None -> Ghd.auto component

let default_plans cq = List.map plan_of_component (Cq.components cq)

let count ?(plans = []) cq db =
  List.fold_left
    (fun acc component ->
      let plan =
        match find_plan plans component with
        | Some g -> g
        | None -> plan_of_component component
      in
      Count.mul_tracked acc (count_ghd plan db))
    Count.one (Cq.components cq)

let output cq db =
  let rels = List.map snd (Cq.instance cq db) in
  Join.join_all rels
