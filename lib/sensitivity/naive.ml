open Tsens_relational
open Tsens_query

let intersect_sorted xs ys =
  let rec loop acc xs ys =
    match (xs, ys) with
    | [], _ | _, [] -> List.rev acc
    | x :: xs', y :: ys' ->
        let c = Value.compare x y in
        if c = 0 then loop (x :: acc) xs' ys'
        else if c < 0 then loop acc xs' ys
        else loop acc xs ys'
  in
  loop [] xs ys

(* Per attribute of [relation], the values an insertion candidate may
   take there. *)
let attribute_domains cq db relation =
  let schema = Cq.schema_of cq relation in
  let base = Database.find relation db in
  let domain_of attr =
    let other_homes =
      List.filter
        (fun r -> not (String.equal r relation))
        (Cq.atoms_with cq attr)
    in
    match other_homes with
    | [] -> (
        (* Lonely attribute: a single arbitrary value suffices. *)
        match Relation.active_domain attr base with
        | v :: _ -> [ v ]
        | [] -> [ Value.str "any" ])
    | first :: rest ->
        List.fold_left
          (fun acc r ->
            intersect_sorted acc
              (Relation.active_domain attr (Database.find r db)))
          (Relation.active_domain attr (Database.find first db))
          rest
  in
  List.map domain_of (Schema.attrs schema)

(* The candidates: the cross product of the attribute domains, sorted. *)
let candidates_of domains =
  let rec product = function
    | [] -> [ [] ]
    | d :: rest ->
        let tails = product rest in
        List.concat_map (fun v -> List.map (fun t -> v :: t) tails) d
  in
  List.map Tuple.of_list (product domains) |> List.sort Tuple.compare

let representative_domain cq db relation =
  candidates_of (attribute_domains cq db relation)

let count_with cq db relation rel' =
  Yannakakis.count cq (Database.add ~name:relation rel' db)

let tuple_sensitivity cq db relation tuple =
  let base_count = Yannakakis.count cq db in
  let rel = Database.find relation db in
  let up =
    Count.of_int (count_with cq db relation (Relation.add tuple rel) - base_count)
  in
  let down =
    if Relation.mem tuple rel then
      Count.of_int
        (base_count - count_with cq db relation (Relation.remove tuple rel))
    else Count.zero
  in
  Count.max up down

let local_sensitivity ?selection ?(max_candidates = 100_000) cq db =
  let db =
    let instance = Cq.instance cq db in
    let filtered =
      match selection with
      | None -> instance
      | Some pred ->
          List.map
            (fun (name, rel) ->
              (name, Relation.filter (fun s t -> pred name s t) rel))
            instance
    in
    Database.of_list filtered
  in
  let admissible relation schema tuple =
    match selection with
    | None -> true
    | Some pred -> pred relation schema tuple
  in
  let domains =
    List.map (fun r -> (r, attribute_domains cq db r)) (Cq.relation_names cq)
  in
  (* The candidate count is the product of the attribute domains' sizes,
     so the guard fires before any probe or product is built. *)
  List.iter
    (fun (relation, domains) ->
      let candidates =
        List.fold_left
          (fun n d -> Count.mul n (List.length d))
          Count.one domains
      in
      if candidates > max_candidates then
        Errors.data_errorf
          "naive sensitivity: %d insertion candidates for %s exceed the limit %d"
          candidates relation max_candidates)
    domains;
  let base_count = Yannakakis.count cq db in
  let best_for (relation, domains) =
    let rel = Database.find relation db in
    let schema = Cq.schema_of cq relation in
    let consider best tuple delta =
      match best with
      | Some (_, _, c) when c >= delta -> best
      | _ when Count.equal delta Count.zero -> best
      | _ -> Some (tuple, schema, delta)
    in
    (* Deletions: one copy of each existing distinct tuple. *)
    let deletions =
      Array.map
        (fun (tuple, _) ->
          let removed = count_with cq db relation (Relation.remove tuple rel) in
          (tuple, Count.of_int (base_count - removed)))
        (Relation.rows rel)
    in
    let best =
      Array.fold_left
        (fun best (tuple, delta) -> consider best tuple delta)
        None deletions
    in
    (* Insertions: one copy of each representative-domain tuple.
       Inadmissible candidates map to a zero delta, which [consider]
       ignores. *)
    let insertions =
      List.map
        (fun tuple ->
          if not (admissible relation schema tuple) then (tuple, Count.zero)
          else
            let added = count_with cq db relation (Relation.add tuple rel) in
            (tuple, Count.of_int (added - base_count)))
        (candidates_of domains)
    in
    List.fold_left
      (fun best (tuple, delta) -> consider best tuple delta)
      best insertions
  in
  Sens_types.result_of_per_relation
    (List.map
       (fun ((r, _) as d) ->
         match best_for d with
         | None -> (r, Count.zero, None)
         | Some (tuple, schema, c) -> (r, c, Some (tuple, schema)))
       domains)
