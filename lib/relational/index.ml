(* Keyed once at build; lookups share the precomputed key positions.

   Groups are frozen as arrays at the end of [build], so join probe
   loops iterate contiguous memory instead of chasing cons cells. *)

let c_builds = Obs.counter "index.builds"
let c_probes = Obs.counter "index.probes"
let c_rows = Obs.counter "index.rows_indexed"
let g_group = Obs.gauge "index.max_group_rows"

module H = Tuple.Tbl

(* One cell per key holds both the group's rows and its summed count,
   so building costs one hash lookup per row. [pending] collects the
   rows during the build; [rows] is the frozen array lookups return. *)
type group = {
  mutable pending : (Tuple.t * Count.t) list;
  mutable rows : (Tuple.t * Count.t) array;
  mutable total : Count.t;
}

type t = group H.t

(* The temporary cons lists reverse row order, as the frozen arrays'
   contract requires (newest first, matching the historical list-based
   index). *)
let build_groups positions rel =
  let rows = Relation.rows rel in
  let table = H.create (max 16 (Array.length rows)) in
  Array.iter
    (fun ((tup, cnt) as row) ->
      let key = Tuple.project positions tup in
      match H.find_opt table key with
      | Some g ->
          g.pending <- row :: g.pending;
          g.total <- Count.add_tracked g.total cnt
      | None -> H.add table key { pending = [ row ]; rows = [||]; total = cnt })
    rows;
  H.iter
    (fun _ g ->
      g.rows <- Array.of_list g.pending;
      g.pending <- [])
    table;
  table

let build ~key rel =
  Obs.span "index.build" @@ fun () ->
  let source = Relation.schema rel in
  if not (Schema.subset key source) then
    Errors.schema_errorf "index key %a not a subset of %a" Schema.pp key
      Schema.pp source;
  let groups = build_groups (Schema.positions ~sub:key source) rel in
  if Obs.enabled () then begin
    Obs.tick c_builds;
    Obs.add c_rows (Relation.distinct_count rel);
    H.iter (fun _ g -> Obs.observe g_group (Array.length g.rows)) groups
  end;
  groups

let lookup t k =
  Obs.tick c_probes;
  match H.find_opt t k with Some g -> g.rows | None -> [||]

let group_count t k =
  Obs.tick c_probes;
  match H.find_opt t k with Some g -> g.total | None -> 0

let max_group_count t =
  H.fold (fun _ g acc -> Count.max g.total acc) t Count.zero
