open Tsens_relational

type witness = {
  relation : string;
  schema : Schema.t;
  tuple : Tuple.t;
  sensitivity : Count.t;
}

type result = {
  local_sensitivity : Count.t;
  witness : witness option;
  per_relation : (string * Count.t) list;
}

let result_of_per_relation bests =
  let per_relation = List.map (fun (relation, c, _) -> (relation, c)) bests in
  let witness =
    List.fold_left
      (fun acc (relation, sensitivity, row) ->
        match row with
        | None -> acc
        | Some (tuple, schema) -> (
            match acc with
            | Some w when w.sensitivity >= sensitivity -> acc
            | _ -> Some { relation; schema; tuple; sensitivity }))
      None bests
  in
  let local_sensitivity =
    List.fold_left (fun acc (_, c) -> Count.max acc c) Count.zero per_relation
  in
  { local_sensitivity; witness; per_relation }

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
    Schema.attrs (Tsens_query.Cq.schema_of cq relation)
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

let pp_witness ppf w =
  Format.fprintf ppf "%s%a with sensitivity %a" w.relation Tuple.pp w.tuple
    Count.pp w.sensitivity

let pp_result ppf r =
  Format.fprintf ppf "@[<v>LS = %a@," Count.pp r.local_sensitivity;
  (match r.witness with
  | Some w -> Format.fprintf ppf "witness: %a@," pp_witness w
  | None -> Format.fprintf ppf "witness: none@,");
  List.iter
    (fun (rel, c) -> Format.fprintf ppf "  max over %s: %a@," rel Count.pp c)
    r.per_relation;
  Format.fprintf ppf "@]"
