open Tsens_relational
open Tsens_query

type selection = string -> Schema.t -> Tuple.t -> bool

(* A multiplicity table is a list of disjoint blocks: every entry of the
   table lies in exactly one block. A block's entry at τ is [factor] ×
   ∏ its parts' counts at τ's projections, and its parts' schemas cover
   the table's schema disjointly. Parts that join as a pure cross
   product (path-query endpoints, star centres) stay apart, which keeps
   q1-style tables from materializing the whole representative domain
   (|Orders| × |Customer| rows). When the parts carry attributes S
   outside the table's schema, and one part's table attributes
   determine S in the data, the table splits into one block per
   S-value s, each holding the parts restricted to s: q3's Orders table
   T(CK, OK) = Σ_NK ⊤(NK, OK) · ⊥_N(NK) · Customer(NK, CK) becomes one
   block per nation, since CK → NK. Otherwise the table is one block
   with one part, the grouped join. [key] is the determining part's
   table attributes and [block_of] maps their values to blocks (one
   block: the empty key). [tail] bounds every entry that reads a part
   off its explicit rows; it is 0 unless the pass compressed a part (see
   [intermediate]). *)
type block = { parts : Relation.t list; factor : Count.t }

type table = {
  schema : Schema.t;
  blocks : block array;
  key : Schema.t;
  block_of : int Tuple.Tbl.t;
  tail : Count.t;
}

(* A botjoin or topjoin as the pass carries it: [rel]'s rows exactly,
   every other key of its link domain bounded by [default]. TSens keeps
   every row, so its defaults are 0; the top-k approximation cuts each
   intermediate to its heaviest rows. *)
type intermediate = { rel : Relation.t; default : Count.t }

let exact rel = { rel; default = Count.zero }

type kind = Dense | Factored | Blocked

let kind table =
  match table.blocks with
  | [||] | [| { parts = [ _ ]; _ } |] -> Dense
  | [| _ |] -> Factored
  | _ -> Blocked

(* Distinct rows held by the parts. A part without S is the same
   relation in every block, and is counted once. *)
let stored_rows table =
  let rows = List.fold_left (fun n p -> n + Relation.distinct_count p) in
  match Array.to_list table.blocks with
  | [] -> 0
  | first :: rest ->
      List.fold_left
        (fun n b ->
          rows n (List.filter (fun p -> not (List.memq p first.parts)) b.parts))
        (rows 0 first.parts) rest

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
let c_blocked = Obs.counter "tsens.tables_blocked"

type table_stat = {
  table_relation : string;
  factored : bool;
  blocks : int;
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

(* [acc] times each part's count at the projection of [tuple], a tuple
   over [atom_schema]. A recursion rather than a fold: no closure per
   point lookup. *)
let rec parts_entry atom_schema tuple acc = function
  | [] -> acc
  | part :: parts ->
      let positions =
        Schema.positions ~sub:(Relation.schema part) atom_schema
      in
      parts_entry atom_schema tuple
        (Count.mul_tracked acc
           (Relation.count_of (Tuple.project positions tuple) part))
        parts

(* Entry lookup from a tuple over the relation's full atom schema: the
   key's values pick the block, whose parts give the entry. *)
let table_entry atom_schema table tuple =
  let key =
    Tuple.project (Schema.positions ~sub:table.key atom_schema) tuple
  in
  match Tuple.Tbl.find table.block_of key with
  | exception Not_found -> Count.zero
  | i ->
      let { parts; factor } = table.blocks.(i) in
      parts_entry atom_schema tuple factor parts

(* Heaviest first, ties broken by the smallest tuple. *)
let heavier (t1, c1) (t2, c2) =
  match Count.compare c2 c1 with 0 -> Tuple.compare t1 t2 | c -> c

(* [heavier] for the rows of a block's part whose column [j] lands at
   [dest.(j)] of the table's rows, with ties broken by the part's
   columns in the table's column order — the order the combined rows
   are ranked in. *)
let heavier_within dest =
  let n = Array.length dest in
  let in_order = ref true in
  for j = 1 to n - 1 do
    if dest.(j - 1) > dest.(j) then in_order := false
  done;
  if !in_order then heavier
  else
    let positions = Array.init n Fun.id in
    Array.sort (fun a b -> Int.compare dest.(a) dest.(b)) positions;
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

(* Entries of a block as a sequence, heaviest first (ties by tuple
   order); with [~limit:k] only the first [k] are guaranteed. Index
   combinations of the parts are enumerated best-first with a heap,
   never materializing the cross product; on a one-part block the heap
   holds one entry and the scan reads the part's top rows in order. A
   part's rows are ranked with ties in the table's column order, so a
   combination that is nowhere further along the parts than another
   also ranks no lower; that keeps the best-first order exact (up to
   saturated counts, where unequal parts can multiply to equal entries).
   Reaching index [j] of a part takes [j] earlier pops along that part,
   so the first [k] pops never look past a part's first [k] rows, and
   truncating each part to them changes none of those pops. *)
let block_rows_desc ?limit schema { parts; factor } =
  if Count.equal factor Count.zero then Seq.empty
  else
    let parts = Array.of_list parts in
    (* Column [j] of part [i] lands at [dest.(i).(j)] of a row. The parts
       cover the table's schema, so every position is filled. *)
    let dest =
      Array.map
        (fun p -> Schema.positions ~sub:(Relation.schema p) schema)
        parts
    in
    let part_rows =
      Array.mapi
        (fun i p ->
          let rows = Relation.rows p in
          top_rows ~order:(heavier_within dest.(i))
            (Option.value limit ~default:(Array.length rows))
            rows)
        parts
    in
    if Array.exists (fun a -> Array.length a = 0) part_rows then Seq.empty
    else begin
      let k = Array.length part_rows in
      let arity = Schema.arity schema in
      let combo indices =
        let row = Array.make arity (Value.int 0) in
        let count = ref factor in
        for i = 0 to k - 1 do
          let tuple, c = part_rows.(i).(indices.(i)) in
          let d = dest.(i) in
          for j = 0 to Array.length d - 1 do
            row.(d.(j)) <- tuple.(j)
          done;
          count := Count.mul_tracked !count c
        done;
        (row, !count)
      in
      (* max-heap: heaviest first, then smallest tuple *)
      let cmp (e1, _) (e2, _) = heavier e2 e1 in
      let push indices heap = Heap.insert (combo indices, indices) heap in
      let rec next heap () =
        match Heap.pop heap with
        | None -> Seq.Nil
        | Some ((entry, indices), heap) ->
            (* Successors advance one coordinate at or after the last
               nonzero one, so a combination's only parent is itself
               with that coordinate one lower: each is pushed once, by
               a parent that ranks no lower. *)
            let last = ref 0 in
            for i = 0 to k - 1 do
              if indices.(i) > 0 then last := i
            done;
            let heap = ref heap in
            for i = !last to k - 1 do
              if indices.(i) + 1 < Array.length part_rows.(i) then begin
                let succ = Array.copy indices in
                succ.(i) <- succ.(i) + 1;
                heap := push succ !heap
              end
            done;
            Seq.Cons (entry, next !heap)
      in
      next (push (Array.make k 0) (Heap.empty ~cmp))
    end

(* Entries of a table, heaviest first: a k-way merge of its blocks'
   sequences in [heavier] order (a table of one block is that block's
   sequence). The blocks hold disjoint rows, so the merge is the order
   of the table as one sorted relation, ties included, and its first
   [k] rows read no block past its first [k]. A block enters the merge
   unexpanded, at the count of its head (its factor times its parts'
   largest counts), and is expanded into its sequence only when that
   count reaches the top. At equal counts an unexpanded block ranks
   first, so no row is yielded while a block that may hold a smaller
   tuple of that count is still unexpanded. *)
type merged =
  | Unexpanded of Count.t * block
  | Head of (Tuple.t * Count.t) * (Tuple.t * Count.t) Seq.t

let table_rows_desc ?limit (table : table) =
  match table.blocks with
  | [| b |] -> block_rows_desc ?limit table.schema b
  | blocks ->
      let count = function Unexpanded (c, _) | Head ((_, c), _) -> c in
      let unexpanded = function Unexpanded _ -> true | Head _ -> false in
      let cmp a b =
        match (a, b) with
        | Head (e1, _), Head (e2, _) -> heavier e2 e1
        | _ -> (
            match Count.compare (count a) (count b) with
            | 0 -> Bool.compare (unexpanded a) (unexpanded b)
            | c -> c)
      in
      let add seq heap =
        match seq () with
        | Seq.Nil -> heap
        | Seq.Cons (e, rest) -> Heap.insert (Head (e, rest)) heap
      in
      let rec next heap () =
        match Heap.pop heap with
        | None -> Seq.Nil
        | Some (Unexpanded (_, b), heap) ->
            next (add (block_rows_desc ?limit table.schema b) heap) ()
        | Some (Head (e, rest), heap) ->
            Seq.Cons (e, fun () -> next (add rest heap) ())
      in
      let largest part =
        Relation.fold (fun _ c acc -> Count.max c acc) part Count.zero
      in
      next
        (Array.fold_left
           (fun heap b ->
             let head =
               List.fold_left
                 (fun acc p -> Count.mul acc (largest p))
                 b.factor b.parts
             in
             if Count.equal head Count.zero then heap
             else Heap.insert (Unexpanded (head, b)) heap)
           (Heap.empty ~cmp) blocks)

let materialize_block schema { parts; factor } =
  if Count.equal factor Count.zero then Relation.empty schema
  else
    let joined =
      match parts with
      | [ part ] -> Relation.reorder schema part
      | parts -> Join.join_project_all ~group:schema (unit_relation :: parts)
    in
    if Count.equal factor Count.one then joined
    else Relation.scale factor joined

(* The blocks' rows are disjoint, so their union is a concatenation. *)
let materialize_table table =
  Array.to_list table.blocks
  |> List.map (fun b -> Relation.rows (materialize_block table.schema b))
  |> Array.concat
  |> Relation.of_grouped table.schema

let scale_table factor (table : table) =
  if Count.equal factor Count.one then table
  else
    {
      table with
      blocks =
        Array.map
          (fun b -> { b with factor = Count.mul_tracked b.factor factor })
          table.blocks;
      tail = Count.mul_tracked table.tail factor;
    }

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
(* Building a table from the parts of its grouped join *)

(* A table of one block. *)
let single schema parts =
  let block_of = Tuple.Tbl.create 1 in
  Tuple.Tbl.replace block_of [||] 0;
  {
    schema;
    blocks = [| { parts; factor = Count.one } |];
    key = Schema.empty;
    block_of;
    tail = Count.zero;
  }

(* Whether [part] covers [s] and its attributes in [schema] determine
   [s] in its rows: one hash pass, stopped at the first conflict. *)
let determines schema s part =
  let own = Relation.schema part in
  Schema.subset s own
  &&
  let kp = Schema.positions ~sub:(Schema.inter own schema) own in
  let sp = Schema.positions ~sub:s own in
  let rows = Relation.rows part in
  let seen = Tuple.Tbl.create (Array.length rows) in
  Array.for_all
    (fun (t, _) ->
      let k = Tuple.project kp t and v = Tuple.project sp t in
      match Tuple.Tbl.find_opt seen k with
      | Some v' -> Tuple.equal v v'
      | None ->
          Tuple.Tbl.replace seen k v;
          true)
    rows

(* [part] restricted to an S-value and projected off [s], as a function
   of the S-value (over [s]); a part without S is the same in every
   block. *)
let slicer s part =
  let schema = Relation.schema part in
  let own = Schema.inter schema s in
  if Schema.arity own = 0 then fun _ -> part
  else begin
    let rest = Schema.diff schema s in
    let op = Schema.positions ~sub:own schema in
    let rp = Schema.positions ~sub:rest schema in
    let groups = Tuple.Tbl.create 16 in
    Relation.iter
      (fun t c ->
        let k = Tuple.project op t in
        let rows = Option.value ~default:[] (Tuple.Tbl.find_opt groups k) in
        Tuple.Tbl.replace groups k ((Tuple.project rp t, c) :: rows))
      part;
    let at = Schema.positions ~sub:own s in
    fun value ->
      match Tuple.Tbl.find_opt groups (Tuple.project at value) with
      | None -> Relation.empty rest
      | Some rows -> Relation.of_grouped rest (Array.of_list (List.rev rows))
  end

(* One block per S-value of [keyed], whose attributes in [schema]
   determine [s]. A part over S alone restricts to one count, which
   joins the block's factor; a block with an empty part or a zero factor
   holds no entry and is dropped. A key value's block is the one whose
   slice of [keyed] holds it. *)
let split schema s keyed parts =
  let slicers = List.map (fun p -> (p, slicer s p)) parts in
  let block_at value =
    let nullary, parts =
      List.partition
        (fun r -> Schema.arity (Relation.schema r) = 0)
        (List.map (fun (_, f) -> f value) slicers)
    in
    let factor =
      List.fold_left
        (fun acc r -> Count.mul_tracked acc (Relation.count_of [||] r))
        Count.one nullary
    in
    if Count.equal factor Count.zero || List.exists Relation.is_empty parts
    then None
    else Some (value, { parts; factor })
  in
  let blocks =
    Array.of_list
      (List.filter_map
         (fun (value, _) -> block_at value)
         (Array.to_list (Relation.rows (Relation.project s keyed))))
  in
  let keys = List.assq keyed slicers in
  let block_of = Tuple.Tbl.create (Relation.distinct_count keyed) in
  Array.iteri
    (fun i (value, _) ->
      Relation.iter (fun k _ -> Tuple.Tbl.replace block_of k i) (keys value))
    blocks;
  {
    schema;
    blocks = Array.map snd blocks;
    key = Schema.inter (Relation.schema keyed) schema;
    block_of;
    tail = Count.zero;
  }

(* The table over [schema] whose entries are the grouped join of
   [parts]. With S the parts' attributes outside [schema], the parts
   projected off S must cover [schema] disjointly for the table to
   stay unjoined: then with S empty it is one block of the parts, and
   otherwise it splits when some part determines S. Any other table is
   one block holding the grouped join. *)
let build_table schema parts =
  let s =
    Schema.diff
      (List.fold_left
         (fun acc p -> Schema.union acc (Relation.schema p))
         Schema.empty parts)
      schema
  in
  let disjoint_cover =
    let rec check seen = function
      | [] -> Schema.equal_as_sets seen schema
      | p :: rest ->
          let own = Schema.diff (Relation.schema p) s in
          Schema.disjoint own seen && check (Schema.union seen own) rest
    in
    check Schema.empty parts
  in
  if
    disjoint_cover && Schema.arity s = 0
    && List.compare_length_with parts 1 > 0
  then single schema parts
  else
    match
      if disjoint_cover && Schema.arity s > 0 then
        List.find_opt (determines schema s) parts
      else None
    with
    | Some keyed -> split schema s keyed parts
    | None -> single schema [ Join.join_project_all ~group:schema parts ]

(* ------------------------------------------------------------------ *)
(* The two-pass DP over one connected component's decomposition, with
   [step] applied to every botjoin and topjoin it computes. Returns the
   per-relation multiplicity tables and |Q_c(D)|, an upper bound when
   [step] drops rows. *)

let run_component ~step ?(skip = []) ghd db =
  let cq = Ghd.cq ghd in
  let tree = Ghd.bag_tree ghd in
  (* B_v grouped onto the attributes it shares with its tree neighbours,
     link(v) ∪ ⋃ link(c): every join at v (its botjoin, its children's
     topjoins) groups onto a subset of them, so the bag's other
     attributes are summed away once here rather than in each join. A bag
     without such attributes is its member relation itself. *)
  let bag_rel =
    let cache = Hashtbl.create 16 in
    fun v ->
      match Hashtbl.find_opt cache v with
      | Some r -> r
      | None ->
          let members =
            List.map (fun m -> Database.find m db) (Ghd.members ghd v)
          in
          let neighbours =
            List.fold_left
              (fun s c -> Schema.union s (Join_tree.link_schema tree c))
              (Join_tree.link_schema tree v)
              (Join_tree.children tree v)
          in
          let group =
            Schema.restrict
              ~keep:(fun a -> Schema.mem a neighbours)
              (List.fold_left
                 (fun s r -> Schema.union s (Relation.schema r))
                 Schema.empty members)
          in
          let r = Join.join_project_all ~group members in
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
     kept as blocks of its parts where [build_table] can. *)
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
        let table =
          {
            (build_table
               (shared_schema cq relation)
               (List.map (fun i -> i.rel) inputs))
            with
            tail = tail_bound inputs;
          }
        in
        if Obs.enabled () then begin
          Obs.tick
            (match kind table with
            | Dense -> c_dense
            | Factored -> c_factored
            | Blocked -> c_blocked);
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
        match ranked_scan selection db cq relation table 1 with
        | [] -> (relation, table.tail, None)
        | (tuple, count) :: _ ->
            ( relation,
              Count.max count table.tail,
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
          factored = kind table <> Dense;
          blocks = Array.length table.blocks;
          table_rows = stored_rows table;
        })
      a.tables
  in
  (a.node_stats, table_stats)

let representation t =
  if t.blocks > 1 then Printf.sprintf "blocked (%d blocks)" t.blocks
  else if t.factored then "factored"
  else "dense"

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
    (fun t ->
      Format.fprintf ppf "table %-11s %-8s %d rows@," t.table_relation
        (representation t) t.table_rows)
    table_stats;
  Format.fprintf ppf "@]"

let top_sensitive a relation n =
  if n < 0 then invalid_arg "Tsens.top_sensitive: negative count";
  Obs.span "tsens.top_sensitive" @@ fun () ->
  ranked_scan a.selection a.db a.query relation (find_table a relation) n

let instance_relation a relation = Database.find relation a.db

let witness_tuple a relation row =
  Sens_types.extender a.db a.query relation (find_table a relation).schema row
