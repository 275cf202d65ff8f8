open Tsens_relational
open Tsens_query

(* The [k] heaviest rows exactly, ties broken by the smallest tuple;
   every dropped row's count is at most the heaviest dropped one, which
   becomes the default. *)
let compress k r =
  if Relation.distinct_count r <= k then
    { Tsens.rel = r; default = Count.zero }
  else begin
    let rows = Array.copy (Relation.rows r) in
    Array.sort
      (fun (t1, c1) (t2, c2) ->
        match Count.compare c2 c1 with 0 -> Tuple.compare t1 t2 | c -> c)
      rows;
    {
      Tsens.rel =
        Relation.create ~schema:(Relation.schema r)
          (Array.to_list (Array.sub rows 0 k));
      default = snd rows.(k);
    }
  end

let intermediate_rows cq node_stats =
  List.fold_left
    (fun acc n -> acc + n.Tsens.botjoin_rows + n.Tsens.topjoin_rows)
    0 node_stats
  - List.length (Cq.components cq)

let analyze ~k ?plans cq db =
  if k < 1 then invalid_arg "Approx: k must be at least 1";
  (* On a wider bag a table entry sums several part combinations, and
     the product tail no longer bounds it. *)
  List.iter
    (fun component ->
      if Ghd.width (Yannakakis.plan_for ?plans component) > 1 then
        invalid_arg
          "Approx: top-k approximation is implemented for width-1 plans \
           (acyclic queries) only")
    (Cq.components cq);
  let res, node_stats = Tsens.bounds ~step:(compress k) ?plans cq db in
  (res, intermediate_rows cq node_stats)

let local_sensitivity ~k ?plans cq db = fst (analyze ~k ?plans cq db)
