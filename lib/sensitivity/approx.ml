open Tsens_relational
open Tsens_query

(* A compressed table: the heaviest rows exactly, everything else in the
   key domain bounded by [default]. Invariant: every explicit count is
   >= default. *)
type approx = { rel : Relation.t; default : Count.t }

let unit_relation =
  Relation.create ~schema:Schema.empty [ (Tuple.of_list [], Count.one) ]

let compress k r =
  if Relation.distinct_count r <= k then { rel = r; default = Count.zero }
  else begin
    let rows = Array.copy (Relation.rows r) in
    Array.sort
      (fun (t1, c1) (t2, c2) ->
        match Count.compare c2 c1 with 0 -> Tuple.compare t1 t2 | c -> c)
      rows;
    let kept = Array.to_list (Array.sub rows 0 k) in
    (* Every dropped row's count is at most the heaviest dropped one. *)
    let default = snd rows.(k) in
    { rel = Relation.create ~schema:(Relation.schema r) kept; default }
  end

(* Re-expand a compressed table against the join keys an anchor relation
   can actually probe: misses cost the default. Rows of [p] outside the
   anchor's key space are irrelevant downstream (the join starts from the
   anchor). *)
let complete anchor p =
  if Count.equal p.default Count.zero then p.rel
  else begin
    let key_schema = Relation.schema p.rel in
    let keys = Relation.project key_schema anchor in
    let rows =
      Relation.fold
        (fun key _ acc ->
          let c = Relation.count_of key p.rel in
          let c = if Count.equal c Count.zero then p.default else c in
          (key, c) :: acc)
        keys []
    in
    Relation.create ~schema:key_schema rows
  end

let cap p = Count.max p.default (match Relation.max_row p.rel with
  | Some (_, c) -> c
  | None -> Count.zero)

(* Upper bound on any product combination that touches at least one
   defaulted (non-explicit) entry. *)
let default_bound parts =
  let caps = List.map cap parts in
  List.fold_left
    (fun (acc, index) part ->
      if Count.equal part.default Count.zero then (acc, index + 1)
      else
        let product =
          List.fold_left Count.mul part.default
            (List.filteri (fun j c -> ignore c; j <> index) caps)
        in
        (Count.max acc product, index + 1))
    (Count.zero, 0) parts
  |> fst

let shared_schema = Tsens.shared_schema

type component_tables = {
  bounds : (string * (Tuple.t option * Count.t)) list;
      (* per relation: heaviest explicit row (if any) and the bound *)
  intermediate_rows : int;
}

let run_component ~k ghd db =
  if Ghd.width ghd > 1 then
    invalid_arg
      "Approx: top-k approximation is implemented for width-1 plans \
       (acyclic queries) only";
  let cq = Ghd.cq ghd in
  let tree = Ghd.bag_tree ghd in
  let base v = Database.find (List.hd (Ghd.members ghd v)) db in
  let intermediates = ref 0 in
  let record a =
    intermediates := !intermediates + Relation.distinct_count a.rel;
    a
  in
  let botjoins = Hashtbl.create 16 in
  List.iter
    (fun v ->
      let anchor = base v in
      let completed =
        List.map
          (fun c -> complete anchor (Hashtbl.find botjoins c))
          (Join_tree.children tree v)
      in
      let exact =
        Join.join_project_all
          ~group:(Join_tree.link_schema tree v)
          (anchor :: completed)
      in
      Hashtbl.replace botjoins v (record (compress k exact)))
    (Join_tree.post_order tree);
  let topjoins = Hashtbl.create 16 in
  List.iter
    (fun v ->
      match Join_tree.parent tree v with
      | None ->
          Hashtbl.replace topjoins v
            { rel = unit_relation; default = Count.zero }
      | Some p ->
          let anchor = base p in
          let completed =
            complete anchor (Hashtbl.find topjoins p)
            :: List.map
                 (fun s -> complete anchor (Hashtbl.find botjoins s))
                 (Join_tree.siblings tree v)
          in
          let exact =
            Join.join_project_all
              ~group:(Join_tree.link_schema tree v)
              (anchor :: completed)
          in
          Hashtbl.replace topjoins v (record (compress k exact)))
    (Join_tree.pre_order tree);
  let bounds =
    List.map
      (fun relation ->
        (* Width 1: every part schema is inside shared(relation), so the
           grouped join never sums two combinations into one entry and
           the product bound below is sound. *)
        let v = relation in
        let parts =
          Hashtbl.find topjoins v
          :: List.map (Hashtbl.find botjoins) (Join_tree.children tree v)
        in
        let explicit =
          Join.join_project_all
            ~group:(shared_schema cq relation)
            (unit_relation :: List.map (fun p -> p.rel) parts)
        in
        let explicit_best = Relation.max_row explicit in
        let bound =
          Count.max
            (match explicit_best with Some (_, c) -> c | None -> Count.zero)
            (default_bound parts)
        in
        (relation, (Option.map fst explicit_best, bound)))
      (Cq.relation_names cq)
  in
  { bounds; intermediate_rows = !intermediates }

let plan_for plans component =
  match Yannakakis.find_plan plans component with
  | Some g -> g
  | None -> (
      match Join_tree.of_cq component with
      | Some jt -> Ghd.of_join_tree jt
      | None -> Ghd.auto component)

let analyze ~k ?(plans = []) cq db =
  if k < 1 then invalid_arg "Approx: k must be at least 1";
  let db = Database.of_list (Cq.instance cq db) in
  let components = Cq.components cq in
  let runs =
    List.map
      (fun component ->
        (component, run_component ~k (plan_for plans component) db))
      components
  in
  (* Cross-component scaling uses exact component sizes: the scaling is a
     property of the data, not of the compressed tables. *)
  let exact_sizes =
    List.map
      (fun component -> Yannakakis.count ~plans component db)
      components
  in
  let bounds =
    List.concat
      (List.map2
         (fun (component, run) own_size ->
           ignore own_size;
           let others =
             List.fold_left2
               (fun acc c size ->
                 if Cq.equal c component then acc
                 else Count.mul_tracked acc size)
               Count.one components exact_sizes
           in
           List.map
             (fun (r, (row, bound)) ->
               (r, (row, Count.mul_tracked bound others)))
             run.bounds)
         runs exact_sizes)
  in
  let per_relation =
    List.map (fun r -> (r, snd (List.assoc r bounds))) (Cq.relation_names cq)
  in
  let witness =
    List.fold_left
      (fun acc (relation, (row, bound)) ->
        match row with
        | None -> acc
        | Some row -> (
            match acc with
            | Some w when w.Sens_types.sensitivity >= bound -> acc
            | _ ->
                (* Extend the explicit row over the atom schema. *)
                let schema = Cq.schema_of cq relation in
                let table_schema = shared_schema cq relation in
                let value_for attr =
                  match Schema.index_opt attr table_schema with
                  | Some i -> Tuple.get row i
                  | None -> (
                      match
                        Relation.active_domain attr (Database.find relation db)
                      with
                      | v :: _ -> v
                      | [] -> Value.str "any")
                in
                Some
                  {
                    Sens_types.relation;
                    schema;
                    tuple =
                      Tuple.of_list
                        (List.map value_for (Schema.attrs schema));
                    sensitivity = bound;
                  }))
      None bounds
  in
  let local_sensitivity =
    List.fold_left (fun acc (_, c) -> Count.max acc c) Count.zero per_relation
  in
  let total_intermediates =
    List.fold_left (fun acc (_, run) -> acc + run.intermediate_rows) 0 runs
  in
  ({ Sens_types.local_sensitivity; witness; per_relation }, total_intermediates)

let local_sensitivity ~k ?plans cq db = fst (analyze ~k ?plans cq db)

let intermediate_sizes ~k ?plans cq db =
  let _, compressed = analyze ~k ?plans cq db in
  let _, exact = analyze ~k:max_int ?plans cq db in
  (exact, compressed)
