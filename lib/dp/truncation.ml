open Tsens_relational
open Tsens_sensitivity

type profile = {
  deltas : Count.t array; (* ascending tuple sensitivities, one per distinct tuple *)
  cumulative : Count.t array; (* cumulative Σ cnt·δ aligned with deltas *)
  dropped_mass : Count.t array; (* suffix Σ cnt: tuples dropped above each delta *)
}

let c_entries = Obs.counter "truncation.entries_profiled"

(* Profiles are pure functions of (analysis, relation): keyed by the
   analysis id, so a cached Tsens.analyze hit (same id) also reuses the
   profile, while a re-run DP (fresh id) rebuilds it. The mechanism's
   SVT probes one profile up to ell times, and bench sweeps re-run the
   mechanism per trial — this store turns those into one sort. *)
let profile_store : profile Cache.Store.t =
  Cache.Store.create ~name:"truncation.profile" ~capacity:64
    ~weight:(fun p -> 3 * Array.length p.deltas * 8)
    ()

let profile analysis relation =
  Cache.Store.find_or_add profile_store
    (Cache.Key.of_parts
       [ string_of_int (Tsens.analysis_id analysis); relation ])
  @@ fun () ->
  Obs.span "truncation.profile" @@ fun () ->
  let rel = Tsens.instance_relation analysis relation in
  let entries =
    Relation.fold
      (fun tuple cnt acc ->
        let delta = Tsens.tuple_sensitivity analysis relation tuple in
        (delta, cnt) :: acc)
      rel []
  in
  let entries = Array.of_list entries in
  Obs.add c_entries (Array.length entries);
  Array.sort (fun (d1, _) (d2, _) -> Count.compare d1 d2) entries;
  let n = Array.length entries in
  let deltas = Array.map fst entries in
  let cumulative = Array.make n Count.zero in
  let running = ref Count.zero in
  Array.iteri
    (fun i (d, cnt) ->
      running := Count.add_tracked !running (Count.mul_tracked cnt d);
      cumulative.(i) <- !running)
    entries;
  let dropped_mass = Array.make n Count.zero in
  let mass = ref Count.zero in
  for i = n - 1 downto 0 do
    mass := Count.add_tracked !mass (snd entries.(i));
    dropped_mass.(i) <- !mass
  done;
  { deltas; cumulative; dropped_mass }

(* Index of the last entry with delta <= threshold, or -1. The deltas
   array is ascending but full of duplicate runs (many tuples share a
   sensitivity); the search must land on the *last* entry of the run at
   the boundary, because [cumulative] is only a complete prefix sum at
   run ends. Pinned against a linear-scan oracle in test_dp. *)
let last_kept p threshold =
  let lo = ref 0 and hi = ref (Array.length p.deltas - 1) and res = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if p.deltas.(mid) <= threshold then begin
      res := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  !res

let truncated_answer p threshold =
  match last_kept p threshold with -1 -> Count.zero | i -> p.cumulative.(i)

let max_tuple_sensitivity p =
  let n = Array.length p.deltas in
  if n = 0 then Count.zero else p.deltas.(n - 1)

let tuples_dropped p threshold =
  let i = last_kept p threshold + 1 in
  if i >= Array.length p.dropped_mass then Count.zero else p.dropped_mass.(i)

let truncate_database analysis relation threshold db =
  Obs.span "truncation.truncate" @@ fun () ->
  let atom_order = Relation.schema (Tsens.instance_relation analysis relation) in
  Database.update ~name:relation
    (fun rel ->
      (* Probe sensitivities in atom-column order, but hand the result
         back in the caller's stored column order: replacing the
         relation with atom-ordered columns would silently change the
         database's schema (and break joins outside this query). *)
      let original = Relation.schema rel in
      Relation.reorder original
        (Relation.filter
           (fun _schema tuple ->
             Tsens.tuple_sensitivity analysis relation tuple <= threshold)
           (Relation.reorder atom_order rel)))
    db
