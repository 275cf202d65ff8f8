open Tsens_relational
open Tsens_query

type selection = string -> Schema.t -> Tuple.t -> bool

(* A multiplicity table is either materialized, or — when its parts join
   as a pure cross product (path-query endpoints, star centres) — kept
   factored: the entry at τ is factor × ∏ part counts at τ's projections.
   Factoring is what keeps q1-style tables from materializing the whole
   representative domain (|Orders| × |Customer| rows). *)
type table =
  | Dense of Relation.t
  | Factored of { schema : Schema.t; parts : Relation.t list; factor : Count.t }

type node_stat = {
  bag : string;
  botjoin_rows : int;
  topjoin_rows : int;
  botjoin_seconds : float;
  topjoin_seconds : float;
}

let c_bot_rows = Obs.counter "tsens.botjoin_rows"
let c_top_rows = Obs.counter "tsens.topjoin_rows"
let c_table_rows = Obs.counter "tsens.table_rows_stored"
let c_factored = Obs.counter "tsens.tables_factored"
let c_dense = Obs.counter "tsens.tables_dense"

type table_stat = {
  table_relation : string;
  factored : bool;
  table_rows : int;
}

type analysis = {
  query : Cq.t;
  db : Database.t; (* post-selection instance, atom column order *)
  selection : selection option;
  tables : (string * table) list; (* atom order, scaled across components *)
  out_size : Count.t;
  res : Sens_types.result;
  node_stats : node_stat list;
}

(* The identity of r⋈: one nullary tuple with multiplicity 1. *)
let unit_relation =
  Relation.create ~schema:Schema.empty [ (Tuple.of_list [], Count.one) ]

let shared_schema cq relation =
  Schema.restrict
    ~keep:(fun a -> List.length (Cq.atoms_with cq a) >= 2)
    (Cq.schema_of cq relation)

(* ------------------------------------------------------------------ *)
(* Table representation operations *)

let table_schema = function
  | Dense r -> Relation.schema r
  | Factored f -> f.schema

(* Entry lookup from a tuple over the relation's full atom schema. *)
let table_entry atom_schema table tuple =
  match table with
  | Dense r ->
      let positions = Schema.positions ~sub:(Relation.schema r) atom_schema in
      Relation.count_of (Tuple.project positions tuple) r
  | Factored { parts; factor; _ } ->
      List.fold_left
        (fun acc part ->
          let positions =
            Schema.positions ~sub:(Relation.schema part) atom_schema
          in
          Count.mul_tracked acc
            (Relation.count_of (Tuple.project positions tuple) part))
        factor parts

(* Heaviest first, ties broken by the smallest tuple. *)
let heavier (t1, c1) (t2, c2) =
  match Count.compare c2 c1 with 0 -> Tuple.compare t1 t2 | c -> c

(* [heavier] for the rows of a factored table's part, with ties broken
   by the part's columns in the table's column order — the order the
   combined rows are ranked in. *)
let heavier_within schema part =
  let own = Relation.schema part in
  let in_table_order = Schema.restrict ~keep:(fun a -> Schema.mem a own) schema in
  if Schema.equal in_table_order own then heavier
  else
    let positions = Schema.positions ~sub:in_table_order own in
    fun (t1, c1) (t2, c2) ->
      match Count.compare c2 c1 with
      | 0 -> Tuple.compare (Tuple.project positions t1) (Tuple.project positions t2)
      | c -> c

(* The first [k] rows in [heavier] order without sorting the rest: a
   bounded heap holds the best [k] seen so far, the lightest at its
   root, so selection costs O(n log k) and only the survivors are
   sorted. Rows of one relation are distinct, so the order is total and
   the result is exactly the prefix of a full sort. *)
let top_rows ?(order = heavier) k rows =
  let n = Array.length rows in
  if k >= n then begin
    let rows = Array.copy rows in
    Array.sort order rows;
    rows
  end
  else if k = 0 then [||]
  else begin
    let heap = Array.sub rows 0 k in
    let lighter i j = order heap.(i) heap.(j) > 0 in
    let rec sift i =
      let l = (2 * i) + 1 in
      let m = if l < k && lighter l i then l else i in
      let m = if l + 1 < k && lighter (l + 1) m then l + 1 else m in
      if m <> i then begin
        let x = heap.(i) in
        heap.(i) <- heap.(m);
        heap.(m) <- x;
        sift m
      end
    in
    for i = (k / 2) - 1 downto 0 do
      sift i
    done;
    for j = k to n - 1 do
      if order rows.(j) heap.(0) < 0 then begin
        heap.(0) <- rows.(j);
        sift 0
      end
    done;
    Array.sort order heap;
    heap
  end

(* Entries of a table as a sequence, heaviest first (ties by tuple
   order); with [~limit:k] only the first [k] are guaranteed. Dense
   tables select their top rows; factored tables enumerate index
   combinations best-first with a heap, never materializing the cross
   product. A part's rows are ranked with ties in the table's column
   order, so a combination that is nowhere further along the parts than
   another also ranks no lower; that keeps the best-first order exact
   (up to saturated counts, where unequal parts can multiply to equal
   entries). Reaching index [j]
   of a part takes [j] earlier pops along that part, so the first [k]
   pops never look past a part's first [k] rows, and truncating each part
   to them changes none of those pops. *)
let table_rows_desc ?limit table =
  let desc ?order p =
    let rows = Relation.rows p in
    top_rows ?order (Option.value limit ~default:(Array.length rows)) rows
  in
  match table with
  | Dense r -> Array.to_seq (desc r)
  | Factored { schema; parts; factor } ->
      if Count.equal factor Count.zero then Seq.empty
      else
        let part_rows =
          List.map (fun p -> desc ~order:(heavier_within schema p) p) parts
        in
        if List.exists (fun a -> Array.length a = 0) part_rows then Seq.empty
        else begin
          let part_rows = Array.of_list part_rows in
          let k = Array.length part_rows in
          (* A row is its parts' rows laid side by side, then permuted
             into the table's column order. The parts cover the table's
             schema, so every position exists. *)
          let positions =
            Schema.positions ~sub:schema
              (List.fold_left
                 (fun acc p -> Schema.union acc (Relation.schema p))
                 Schema.empty parts)
          in
          let combo indices =
            let row =
              Tuple.project positions
                (Array.concat
                   (List.init k (fun i -> fst part_rows.(i).(indices.(i)))))
            in
            let count =
              Array.to_list
                (Array.mapi (fun i j -> snd part_rows.(i).(j)) indices)
              |> List.fold_left Count.mul_tracked factor
            in
            (row, count)
          in
          let cmp (c1, t1, _) (c2, t2, _) =
            (* max-heap: heaviest first, then smallest tuple *)
            match Count.compare c1 c2 with
            | 0 -> Tuple.compare t2 t1
            | c -> c
          in
          let visited = Hashtbl.create 64 in
          let push indices heap =
            let key = Array.to_list indices in
            if Hashtbl.mem visited key then heap
            else begin
              Hashtbl.add visited key ();
              let row, count = combo indices in
              Heap.insert (count, row, indices) heap
            end
          in
          let initial = push (Array.make k 0) (Heap.empty ~cmp) in
          let rec next heap () =
            match Heap.pop heap with
            | None -> Seq.Nil
            | Some ((count, row, indices), heap) ->
                (* successors: advance one coordinate *)
                let heap = ref heap in
                for i = 0 to k - 1 do
                  if indices.(i) + 1 < Array.length part_rows.(i) then begin
                    let succ = Array.copy indices in
                    succ.(i) <- succ.(i) + 1;
                    heap := push succ !heap
                  end
                done;
                Seq.Cons ((row, count), next !heap)
          in
          next initial
        end

(* Heaviest entry, ties broken by the smallest tuple: the head of
   [table_rows_desc], so the witness is always [top_sensitive]'s first
   row. A dense table's rows are sorted, so its first maximum is the
   smallest tied tuple. *)
let table_best table =
  match table with
  | Dense r -> Relation.max_row r
  | Factored _ -> (
      match table_rows_desc ~limit:1 table () with
      | Seq.Nil -> None
      | Seq.Cons (best, _) -> Some best)

let materialize_table table =
  match table with
  | Dense r -> r
  | Factored { schema; parts; factor } ->
      if Count.equal factor Count.zero then Relation.empty schema
      else
        let joined =
          Join.join_project_all ~group:schema (unit_relation :: parts)
        in
        if Count.equal factor Count.one then joined
        else Relation.scale factor joined

let scale_table factor table =
  if Count.equal factor Count.one then table
  else
    match table with
    | Dense r ->
        if Count.equal factor Count.zero then
          Dense (Relation.empty (Relation.schema r))
        else Dense (Relation.scale factor r)
    | Factored f ->
        Factored { f with factor = Count.mul_tracked f.factor factor }

(* ------------------------------------------------------------------ *)
(* The two-pass DP over one connected component's decomposition.
   Returns the per-relation multiplicity tables and |Q_c(D)|. *)

let run_component ?(skip = []) ghd db =
  let cq = Ghd.cq ghd in
  let tree = Ghd.bag_tree ghd in
  let bag_rel =
    let cache = Hashtbl.create 16 in
    fun v ->
      match Hashtbl.find_opt cache v with
      | Some r -> r
      | None ->
          let r =
            Join.join_all
              (List.map (fun m -> Database.find m db) (Ghd.members ghd v))
          in
          Hashtbl.replace cache v r;
          r
  in
  (* Bottom-up botjoins: ⊥(v) = γ_link(v) (B_v ⋈ {⊥(c)}). *)
  let botjoins = Hashtbl.create 16 in
  let bot_seconds = Hashtbl.create 16 in
  List.iter
    (fun v ->
      let t0 = Obs.now_seconds () in
      let bot =
        Obs.span "tsens.botjoin" @@ fun () ->
        let children = Join_tree.children tree v in
        Join.join_project_all
          ~group:(Join_tree.link_schema tree v)
          (bag_rel v :: List.map (Hashtbl.find botjoins) children)
      in
      Hashtbl.replace botjoins v bot;
      Hashtbl.replace bot_seconds v (Obs.now_seconds () -. t0);
      Obs.add c_bot_rows (Relation.distinct_count bot))
    (Join_tree.post_order tree);
  let out_size =
    Relation.cardinality (Hashtbl.find botjoins (Join_tree.root tree))
  in
  (* Top-down topjoins: ⊤(root) = unit;
     ⊤(v) = γ_link(v) (B_p ⋈ ⊤(p) ⋈ {⊥(s) : s sibling of v}). *)
  let topjoins = Hashtbl.create 16 in
  let top_seconds = Hashtbl.create 16 in
  List.iter
    (fun v ->
      let t0 = Obs.now_seconds () in
      (match Join_tree.parent tree v with
      | None -> Hashtbl.replace topjoins v unit_relation
      | Some p ->
          let top =
            Obs.span "tsens.topjoin" @@ fun () ->
            let siblings = Join_tree.siblings tree v in
            Join.join_project_all
              ~group:(Join_tree.link_schema tree v)
              (bag_rel p :: Hashtbl.find topjoins p
              :: List.map (Hashtbl.find botjoins) siblings)
          in
          Hashtbl.replace topjoins v top);
      Hashtbl.replace top_seconds v (Obs.now_seconds () -. t0);
      Obs.add c_top_rows (Relation.distinct_count (Hashtbl.find topjoins v)))
    (Join_tree.pre_order tree);
  (* Multiplicity tables: T^R = γ_shared(R) (⊤(v) ⋈ {⊥(c)} ⋈ co-members),
     kept factored when the parts are a disjoint cover of shared(R). *)
  let wanted =
    List.filter
      (fun r -> not (List.exists (String.equal r) skip))
      (Cq.relation_names cq)
  in
  let tables =
    Obs.span "tsens.tables" @@ fun () ->
    List.map
      (fun relation ->
        let v = Ghd.bag_of ghd relation in
        let co_members =
          List.filter_map
            (fun m ->
              if String.equal m relation then None
              else Some (Database.find m db))
            (Ghd.members ghd v)
        in
        let child_bots =
          List.map (Hashtbl.find botjoins) (Join_tree.children tree v)
        in
        let parts = Hashtbl.find topjoins v :: (child_bots @ co_members) in
        let group = shared_schema cq relation in
        let disjoint_cover =
          let rec check seen = function
            | [] -> Schema.equal_as_sets seen group
            | p :: rest ->
                let s = Relation.schema p in
                Schema.subset s group
                && Schema.disjoint s seen
                && check (Schema.union seen s) rest
          in
          check Schema.empty parts
        in
        let table =
          if disjoint_cover && List.length parts >= 2 then
            Factored { schema = group; parts; factor = Count.one }
          else Dense (Join.join_project_all ~group parts)
        in
        if Obs.enabled () then begin
          match table with
          | Factored { parts; _ } ->
              Obs.tick c_factored;
              Obs.add c_table_rows
                (List.fold_left
                   (fun acc p -> acc + Relation.distinct_count p)
                   0 parts)
          | Dense r ->
              Obs.tick c_dense;
              Obs.add c_table_rows (Relation.distinct_count r)
        end;
        (relation, table))
      wanted
  in
  let node_stats =
    List.map
      (fun v ->
        {
          bag = v;
          botjoin_rows = Relation.distinct_count (Hashtbl.find botjoins v);
          topjoin_rows = Relation.distinct_count (Hashtbl.find topjoins v);
          botjoin_seconds = Hashtbl.find bot_seconds v;
          topjoin_seconds = Hashtbl.find top_seconds v;
        })
      (Join_tree.post_order tree)
  in
  (tables, out_size, node_stats)

(* ------------------------------------------------------------------ *)
(* Witness extrapolation for attributes outside the multiplicity table:
   lonely attributes take any value (paper Section 5.4) — the smallest
   one in the base relation, so witnesses are deterministic. [extender]
   finds each filler once, in one pass over the base relation, and
   returns the function that extends one table row. *)

let extender db cq relation row_schema =
  let base = Database.find relation db in
  let smallest attr =
    let pos = Schema.index attr (Relation.schema base) in
    Relation.fold
      (fun tup _ best ->
        let x = Tuple.get tup pos in
        match best with
        | Some b when Value.compare b x <= 0 -> best
        | _ -> Some x)
      base None
    |> Option.value ~default:(Value.str "any")
  in
  let sources =
    Schema.attrs (Cq.schema_of cq relation)
    |> List.map (fun attr ->
           match Schema.index_opt attr row_schema with
           | Some i -> Either.Left i
           | None -> Either.Right (smallest attr))
    |> Array.of_list
  in
  fun row ->
    Array.map
      (function Either.Left i -> Tuple.get row i | Either.Right v -> v)
      sources

(* Best admissible entry of a multiplicity table: the heaviest one whose
   extended tuple passes the selection (rows that fail have true
   sensitivity 0). Without a selection the factored fast path applies;
   with one we must scan entries in weight order, which requires a
   materialized table. *)
let best_of_table selection db cq relation table =
  let atom_schema = Cq.schema_of cq relation in
  match selection with
  | None ->
      Option.map
        (fun (row, count) ->
          ( extender db cq relation (table_schema table) row,
            atom_schema,
            count ))
        (table_best table)
  | Some pred ->
      let materialized = materialize_table table in
      let extend = extender db cq relation (Relation.schema materialized) in
      let rows = Array.copy (Relation.rows materialized) in
      Array.sort
        (fun (t1, c1) (t2, c2) ->
          match Count.compare c2 c1 with 0 -> Tuple.compare t1 t2 | c -> c)
        rows;
      Array.to_seq rows
      |> Seq.find_map (fun (row, count) ->
             let full = extend row in
             if pred relation atom_schema full then
               Some (full, atom_schema, count)
             else None)

(* ------------------------------------------------------------------ *)

let apply_selection selection cq db =
  let instance = Cq.instance cq db in
  let filtered =
    match selection with
    | None -> instance
    | Some pred ->
        List.map
          (fun (name, rel) ->
            (name, Relation.filter (fun schema t -> pred name schema t) rel))
          instance
  in
  Database.of_list filtered

let analyze ?selection ?(skip = []) ?(plans = []) cq db =
  List.iter
    (fun r ->
      if not (Cq.mem_relation cq r) then
        Errors.schema_errorf "skip: relation %s is not in query %s" r
          (Cq.name cq))
    skip;
  Obs.span "tsens.analyze" @@ fun () ->
  let db = apply_selection selection cq db in
  let components = Cq.components cq in
  let runs =
    List.map
      (fun component ->
        let plan =
          match Yannakakis.find_plan plans component with
          | Some g -> g
          | None -> (
              match Join_tree.of_cq component with
              | Some jt -> Ghd.of_join_tree jt
              | None -> Ghd.auto component)
        in
        (component, run_component ~skip plan db))
      components
  in
  let out_size =
    List.fold_left
      (fun acc (_, (_, size, _)) -> Count.mul_tracked acc size)
      Count.one runs
  in
  let node_stats = List.concat_map (fun (_, (_, _, stats)) -> stats) runs in
  (* A tuple of component i multiplies with every full output of the other
     components (the query is their cross product). *)
  let tables =
    List.concat_map
      (fun (component, (tables, _, _)) ->
        let others =
          List.fold_left
            (fun acc (c, (_, size, _)) ->
              if Cq.equal c component then acc else Count.mul_tracked acc size)
            Count.one runs
        in
        List.map (fun (r, t) -> (r, scale_table others t)) tables)
      runs
  in
  (* Restore atom order (skipped relations carry no table). *)
  let tables =
    List.filter_map
      (fun r -> Option.map (fun t -> (r, t)) (List.assoc_opt r tables))
      (Cq.relation_names cq)
  in
  let bests =
    List.map
      (fun (relation, table) ->
        (relation, best_of_table selection db cq relation table))
      tables
  in
  let res = Sens_types.result_of_per_relation bests in
  (* Skipped relations are reported with the paper's FK-superkey bound of
     1, without a witness, in atom order. *)
  let res =
    if skip = [] then res
    else
      let per_relation =
        List.map
          (fun r ->
            match List.assoc_opt r res.Sens_types.per_relation with
            | Some c -> (r, c)
            | None -> (r, Count.one))
          (Cq.relation_names cq)
      in
      {
        res with
        Sens_types.per_relation;
        local_sensitivity =
          Count.max res.Sens_types.local_sensitivity Count.one;
      }
  in
  {
    query = cq;
    db;
    selection;
    tables;
    out_size;
    res;
    node_stats;
  }

let local_sensitivity ?selection ?skip ?plans cq db =
  (analyze ?selection ?skip ?plans cq db).res

let result a = a.res
let output_size a = a.out_size

let find_table a relation =
  match List.assoc_opt relation a.tables with
  | Some t -> t
  | None ->
      if Cq.mem_relation a.query relation then
        Errors.schema_errorf
          "the multiplicity table of %s was skipped in this analysis"
          relation
      else
        Errors.schema_errorf "relation %s is not part of query %s" relation
          (Cq.name a.query)

let multiplicity_table a relation = materialize_table (find_table a relation)

let tuple_sensitivity a relation tuple =
  let atom_schema = Cq.schema_of a.query relation in
  if Tuple.arity tuple <> Schema.arity atom_schema then
    Errors.data_errorf "tuple %a does not match schema %a of %s" Tuple.pp
      tuple Schema.pp atom_schema relation;
  let fails_selection =
    match a.selection with
    | None -> false
    | Some pred -> not (pred relation atom_schema tuple)
  in
  if fails_selection then Count.zero
  else table_entry atom_schema (find_table a relation) tuple

let statistics a =
  let table_stats =
    List.map
      (fun (relation, table) ->
        match table with
        | Dense r ->
            {
              table_relation = relation;
              factored = false;
              table_rows = Relation.distinct_count r;
            }
        | Factored { parts; _ } ->
            {
              table_relation = relation;
              factored = true;
              table_rows =
                List.fold_left
                  (fun acc p -> acc + Relation.distinct_count p)
                  0 parts;
            })
      a.tables
  in
  (a.node_stats, table_stats)

let pp_statistics ppf a =
  let node_stats, table_stats = statistics a in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun { bag; botjoin_rows; topjoin_rows; botjoin_seconds; topjoin_seconds }
       ->
      Format.fprintf ppf
        "node %-12s botjoin %-8d (%.3fms) topjoin %-8d (%.3fms)@," bag
        botjoin_rows
        (1e3 *. botjoin_seconds)
        topjoin_rows
        (1e3 *. topjoin_seconds))
    node_stats;
  List.iter
    (fun { table_relation; factored; table_rows } ->
      Format.fprintf ppf "table %-11s %-8s %d rows@," table_relation
        (if factored then "factored" else "dense")
        table_rows)
    table_stats;
  Format.fprintf ppf "@]"

let top_sensitive a relation n =
  if n < 0 then invalid_arg "Tsens.top_sensitive: negative count";
  Obs.span "tsens.top_sensitive" @@ fun () ->
  let table = find_table a relation in
  let atom_schema = Cq.schema_of a.query relation in
  let extend = extender a.db a.query relation (table_schema table) in
  let admissible full =
    match a.selection with
    | None -> true
    | Some pred -> pred relation atom_schema full
  in
  (* A selection can reject rows, so only an unfiltered listing knows
     that [n] rows suffice. *)
  let limit = if Option.is_none a.selection then Some n else None in
  table_rows_desc ?limit table
  |> Seq.filter_map (fun (row, count) ->
         let full = extend row in
         if admissible full then Some (full, count) else None)
  |> Seq.take n |> List.of_seq

let instance_relation a relation = Database.find relation a.db

let witness_tuple a relation row =
  let table = find_table a relation in
  extender a.db a.query relation (table_schema table) row
