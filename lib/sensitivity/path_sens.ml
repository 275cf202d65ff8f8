open Tsens_relational
open Tsens_query

let check_order cq order =
  match Classify.path_order cq with
  | None ->
      Errors.schema_errorf "CQ %s is not a path join query" (Cq.name cq)
  | Some detected -> (
      match order with
      | None -> detected
      | Some forced ->
          let same l = List.sort String.compare l in
          if
            same forced <> same detected
            || (forced <> detected && forced <> List.rev detected)
          then
            Errors.schema_errorf
              "%s is not a path order of CQ %s"
              (String.concat "," forced) (Cq.name cq)
          else forced)

let local_sensitivity ?order cq db =
  let order = check_order cq order in
  let names = Array.of_list order in
  let m = Array.length names in
  let instance = Database.of_list (Cq.instance cq db) in
  let rel i = Database.find names.(i) instance in
  let schema_of i = Cq.schema_of cq names.(i) in
  if m = 1 then
    (* Single relation: LS is always 1 (paper Section 2.1). *)
    let w =
      Sens_types.extender instance cq names.(0) Schema.empty (Tuple.of_list [])
    in
    Sens_types.result_of_per_relation
      [ (names.(0), Some (w, schema_of 0, Count.one)) ]
  else begin
    (* common.(i): the attribute linking R_i and R_{i+1} (the paper's
       A_{i+1} with 1-based numbering). *)
    let common =
      Array.init (m - 1) (fun i ->
          Schema.inter (schema_of i) (schema_of (i + 1)))
    in
    (* tops.(i) = ⊤(R_{i+2}) grouped on common.(i): the paths into
       R_{i+2} from the left. *)
    let tops = Array.make (m - 1) (Relation.project common.(0) (rel 0)) in
    for i = 1 to m - 2 do
      tops.(i) <- Join.join_project ~group:common.(i) tops.(i - 1) (rel i)
    done;
    (* bots.(i) = ⊥(R_{i+2}) grouped on common.(i): the paths from
       R_{i+2} rightwards. *)
    let bots =
      Array.make (m - 1) (Relation.project common.(m - 2) (rel (m - 1)))
    in
    for i = m - 3 downto 0 do
      bots.(i) <- Join.join_project ~group:common.(i) bots.(i + 1) (rel (i + 1))
    done;
    (* The heaviest entry of one side and its pinned values; an endpoint
       contributes factor 1 and pins nothing, an empty side makes every
       tuple insensitive. *)
    let heaviest = function
      | None -> Some (Count.one, Schema.empty, Tuple.of_list [])
      | Some table ->
          Option.map
            (fun (row, cnt) -> (cnt, Relation.schema table, row))
            (Relation.max_row table)
    in
    let bests_in_path_order =
      List.init m (fun i ->
          let top = heaviest (if i = 0 then None else Some tops.(i - 1)) in
          let bot = heaviest (if i = m - 1 then None else Some bots.(i)) in
          let best =
            match (top, bot) with
            | Some (ct, st, rt), Some (cb, sb, rb) ->
                let w =
                  Sens_types.extender instance cq names.(i)
                    (Schema.union st sb) (Tuple.concat rt rb)
                in
                Some (w, schema_of i, Count.mul_tracked ct cb)
            | None, _ | _, None -> None
          in
          (names.(i), best))
    in
    (* Report in atom order, like the other algorithms. *)
    let bests =
      List.map
        (fun r -> (r, List.assoc r bests_in_path_order))
        (Cq.relation_names cq)
    in
    Sens_types.result_of_per_relation bests
  end
