open Tsens_relational
open Tsens_query

type selection = string -> Schema.t -> Tuple.t -> bool

(* A multiplicity table: the entry at τ is factor × ∏ part counts at
   τ's projections. When the parts join as a pure cross product
   (path-query endpoints, star centres) they are kept apart, which is
   what keeps q1-style tables from materializing the whole
   representative domain (|Orders| × |Customer| rows). Otherwise the
   table has one part, the grouped join itself. [tail] bounds, before
   [factor], every entry that reads a part off its explicit rows; it is
   0 unless the pass compressed a part (see [intermediate]). *)
type table = {
  schema : Schema.t;
  parts : Relation.t list;
  factor : Count.t;
  tail : Count.t;
}

(* A botjoin or topjoin as the pass carries it: [rel]'s rows exactly,
   every other key of its link domain bounded by [default]. TSens keeps
   every row, so its defaults are 0; the top-k approximation cuts each
   intermediate to its heaviest rows. *)
type intermediate = { rel : Relation.t; default : Count.t }

let exact rel = { rel; default = Count.zero }

let factored table = List.compare_length_with table.parts 1 > 0

let stored_rows table =
  List.fold_left (fun acc p -> acc + Relation.distinct_count p) 0 table.parts

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

(* The attributes of an atom that occur in at least one other atom: the
   schema of its multiplicity table. *)
let shared_schema cq relation =
  Schema.restrict
    ~keep:(fun a -> List.length (Cq.atoms_with cq a) >= 2)
    (Cq.schema_of cq relation)

(* ------------------------------------------------------------------ *)
(* Table representation operations *)

(* Entry lookup from a tuple over the relation's full atom schema. *)
let table_entry atom_schema table tuple =
  List.fold_left
    (fun acc part ->
      let positions =
        Schema.positions ~sub:(Relation.schema part) atom_schema
      in
      Count.mul_tracked acc
        (Relation.count_of (Tuple.project positions tuple) part))
    table.factor table.parts

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
   order); with [~limit:k] only the first [k] are guaranteed. Index
   combinations of the parts are enumerated best-first with a heap,
   never materializing the cross product; on a one-part table the heap
   holds one entry and the scan reads the part's top rows in order. A
   part's rows are ranked with ties in the table's column order, so a
   combination that is nowhere further along the parts than another
   also ranks no lower; that keeps the best-first order exact (up to
   saturated counts, where unequal parts can multiply to equal entries).
   Reaching index [j] of a part takes [j] earlier pops along that part,
   so the first [k] pops never look past a part's first [k] rows, and
   truncating each part to them changes none of those pops. *)
let table_rows_desc ?limit { schema; parts; factor; _ } =
  if Count.equal factor Count.zero then Seq.empty
  else
    let part_rows =
      List.map
        (fun p ->
          let rows = Relation.rows p in
          top_rows ~order:(heavier_within schema p)
            (Option.value limit ~default:(Array.length rows))
            rows)
        parts
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
      let push indices heap =
        let row, count = combo indices in
        Heap.insert (count, row, indices) heap
      in
      let rec next heap () =
        match Heap.pop heap with
        | None -> Seq.Nil
        | Some ((count, row, indices), heap) ->
            (* Successors advance one coordinate at or after the last
               nonzero one, so a combination's only parent is itself
               with that coordinate one lower: each is pushed once, by
               a parent that ranks no lower. *)
            let last = ref 0 in
            Array.iteri (fun i j -> if j > 0 then last := i) indices;
            let heap = ref heap in
            for i = !last to k - 1 do
              if indices.(i) + 1 < Array.length part_rows.(i) then begin
                let succ = Array.copy indices in
                succ.(i) <- succ.(i) + 1;
                heap := push succ !heap
              end
            done;
            Seq.Cons ((row, count), next !heap)
      in
      next (push (Array.make k 0) (Heap.empty ~cmp))
    end

let materialize_table { schema; parts; factor; _ } =
  if Count.equal factor Count.zero then Relation.empty schema
  else
    let joined =
      match parts with
      | [ part ] -> part
      | parts -> Join.join_project_all ~group:schema (unit_relation :: parts)
    in
    if Count.equal factor Count.one then joined
    else Relation.scale factor joined

let scale_table factor table =
  if Count.equal factor Count.one then table
  else { table with factor = Count.mul_tracked table.factor factor }

(* An intermediate as the input of a join at a bag whose relation is
   [anchor]: its explicit rows, and its default at every key of the
   anchor it misses. Keys the anchor lacks cannot join, so they are
   left out. A no-op at default 0. *)
let complete anchor i =
  if Count.equal i.default Count.zero then i.rel
  else
    let key_schema = Relation.schema i.rel in
    Relation.fold
      (fun key _ acc ->
        let c = Relation.count_of key i.rel in
        (key, if Count.equal c Count.zero then i.default else c) :: acc)
      (Relation.project key_schema anchor)
      []
    |> Relation.create ~schema:key_schema

(* A bound on every entry of a table built from [inputs] that reads
   some input off its explicit rows: that input's default times every
   other input's largest count. 0 when no input was compressed. *)
let tail_bound inputs =
  if List.for_all (fun i -> Count.equal i.default Count.zero) inputs then
    Count.zero
  else
    let cap i =
      match Relation.max_row i.rel with
      | Some (_, c) -> Count.max i.default c
      | None -> i.default
    in
    let caps = List.map cap inputs in
    List.mapi
      (fun n i ->
        List.filteri (fun m _ -> m <> n) caps
        |> List.fold_left Count.mul_tracked i.default)
      inputs
    |> List.fold_left Count.max Count.zero

(* ------------------------------------------------------------------ *)
(* The two-pass DP over one connected component's decomposition, with
   [step] applied to every botjoin and topjoin it computes. Returns the
   per-relation multiplicity tables and |Q_c(D)|, an upper bound when
   [step] drops rows. *)

let run_component ~step ?(skip = []) ghd db =
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
        step
          (Join.join_project_all
             ~group:(Join_tree.link_schema tree v)
             (bag_rel v
             :: List.map
                  (fun c -> complete (bag_rel v) (Hashtbl.find botjoins c))
                  children))
      in
      Hashtbl.replace botjoins v bot;
      Hashtbl.replace bot_seconds v (Obs.now_seconds () -. t0);
      Obs.add c_bot_rows (Relation.distinct_count bot.rel))
    (Join_tree.post_order tree);
  let out_size =
    Relation.cardinality (Hashtbl.find botjoins (Join_tree.root tree)).rel
  in
  (* Top-down topjoins: ⊤(root) = unit;
     ⊤(v) = γ_link(v) (B_p ⋈ ⊤(p) ⋈ {⊥(s) : s sibling of v}). *)
  let topjoins = Hashtbl.create 16 in
  let top_seconds = Hashtbl.create 16 in
  List.iter
    (fun v ->
      let t0 = Obs.now_seconds () in
      (match Join_tree.parent tree v with
      | None -> Hashtbl.replace topjoins v (exact unit_relation)
      | Some p ->
          let top =
            Obs.span "tsens.topjoin" @@ fun () ->
            let siblings = Join_tree.siblings tree v in
            step
              (Join.join_project_all
                 ~group:(Join_tree.link_schema tree v)
                 (bag_rel p
                 :: List.map (complete (bag_rel p))
                      (Hashtbl.find topjoins p
                      :: List.map (Hashtbl.find botjoins) siblings)))
          in
          Hashtbl.replace topjoins v top);
      Hashtbl.replace top_seconds v (Obs.now_seconds () -. t0);
      Obs.add c_top_rows
        (Relation.distinct_count (Hashtbl.find topjoins v).rel))
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
              else Some (exact (Database.find m db)))
            (Ghd.members ghd v)
        in
        let child_bots =
          List.map (Hashtbl.find botjoins) (Join_tree.children tree v)
        in
        let inputs = Hashtbl.find topjoins v :: (child_bots @ co_members) in
        let parts = List.map (fun i -> i.rel) inputs in
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
        let parts =
          if disjoint_cover && List.length parts >= 2 then parts
          else [ Join.join_project_all ~group parts ]
        in
        let table =
          {
            schema = group;
            parts;
            factor = Count.one;
            tail = tail_bound inputs;
          }
        in
        if Obs.enabled () then begin
          Obs.tick (if factored table then c_factored else c_dense);
          Obs.add c_table_rows (stored_rows table)
        end;
        (relation, table))
      wanted
  in
  let node_stats =
    List.map
      (fun v ->
        {
          bag = v;
          botjoin_rows = Relation.distinct_count (Hashtbl.find botjoins v).rel;
          topjoin_rows = Relation.distinct_count (Hashtbl.find topjoins v).rel;
          botjoin_seconds = Hashtbl.find bot_seconds v;
          topjoin_seconds = Hashtbl.find top_seconds v;
        })
      (Join_tree.post_order tree)
  in
  (tables, out_size, node_stats)

(* The one ranked scan every ranked read of a table goes through: its
   entries heaviest first, each extended to a full atom tuple, those
   failing the selection dropped (their true sensitivity is 0). The witness is its
   head and [top_sensitive] its first [n] rows. Only without a selection
   is it known that [n] entries suffice. *)
let ranked_scan selection db cq relation table n =
  let atom_schema = Cq.schema_of cq relation in
  let extend = Sens_types.extender db cq relation table.schema in
  let admissible =
    match selection with
    | None -> fun _ -> true
    | Some pred -> pred relation atom_schema
  in
  let limit = if Option.is_none selection then Some n else None in
  table_rows_desc ?limit table
  |> Seq.filter_map (fun (row, count) ->
         let full = extend row in
         if admissible full then Some (full, count) else None)
  |> Seq.take n |> List.of_seq

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

let analyze_with ~step ?selection ?(skip = []) ?plans cq db =
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
        let plan = Yannakakis.plan_for ?plans component in
        (component, run_component ~step ~skip plan db))
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
  (* A relation's maximum is its table's head, or the table's scaled
     tail if that is larger; the head row is the witness either way. *)
  let bests =
    List.map
      (fun (relation, table) ->
        let tail = Count.mul_tracked table.factor table.tail in
        match ranked_scan selection db cq relation table 1 with
        | [] -> (relation, tail, None)
        | (tuple, count) :: _ ->
            ( relation,
              Count.max count tail,
              Some (tuple, Cq.schema_of cq relation) ))
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

let analyze ?selection ?skip ?plans cq db =
  analyze_with ~step:exact ?selection ?skip ?plans cq db

let local_sensitivity ?selection ?skip ?plans cq db =
  (analyze ?selection ?skip ?plans cq db).res

let bounds ~step ?plans cq db =
  let a = analyze_with ~step ?plans cq db in
  (a.res, a.node_stats)

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
        {
          table_relation = relation;
          factored = factored table;
          table_rows = stored_rows table;
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
  ranked_scan a.selection a.db a.query relation (find_table a relation) n

let instance_relation a relation = Database.find relation a.db

let witness_tuple a relation row =
  Sens_types.extender a.db a.query relation (find_table a relation).schema row
