open Tsens_relational
module SMap = Map.Make (String)

type t = {
  cq : Cq.t;
  root : string;
  parent_map : string SMap.t;
  children_map : string list SMap.t;
}

let cq t = t.cq
let root t = t.root
let nodes t = Cq.relation_names t.cq
let parent t node = SMap.find_opt node t.parent_map

let children t node =
  match SMap.find_opt node t.children_map with Some c -> c | None -> []

let siblings t node =
  match parent t node with
  | None -> []
  | Some p -> List.filter (fun c -> not (String.equal c node)) (children t p)

let schema t node = Cq.schema_of t.cq node

let link_schema t node =
  match parent t node with
  | None -> Schema.empty
  | Some p -> Schema.inter (schema t node) (schema t p)

let rec post_order_from t node =
  List.concat_map (post_order_from t) (children t node) @ [ node ]

let post_order t = post_order_from t t.root

let rec pre_order_from t node =
  node :: List.concat_map (pre_order_from t) (children t node)

let pre_order t = pre_order_from t t.root

let max_degree t =
  List.fold_left
    (fun acc node ->
      let d =
        List.length (children t node) + if String.equal node t.root then 0 else 1
      in
      max acc d)
    0 (nodes t)

let is_path t =
  List.for_all (fun node -> List.length (children t node) <= 1) (nodes t)

(* Running intersection: the nodes mentioning each attribute must induce a
   connected subtree. Walking up from each such node, the first ancestor
   that also mentions the attribute must be its direct parent — otherwise
   the occurrences are disconnected or the path breaks. Equivalent, easier
   check: for each non-root node and each attribute it shares with any
   node *outside its subtree*, the attribute must be in the parent link. *)
let validate t =
  let all = nodes t in
  List.iter
    (fun node ->
      match parent t node with
      | None -> ()
      | Some _ ->
          let inside = post_order_from t node in
          let outside =
            List.filter
              (fun n -> not (List.exists (String.equal n) inside))
              all
          in
          let node_schema = schema t node in
          let link = link_schema t node in
          List.iter
            (fun out ->
              let shared = Schema.inter node_schema (schema t out) in
              if not (Schema.subset shared link) then
                Errors.schema_errorf
                  "join tree for %s violates running intersection: %s and %s \
                   share %a but the %s-parent link only carries %a"
                  (Cq.name t.cq) node out Schema.pp shared node Schema.pp link)
            outside)
    all

let build cq root parent_map =
  let children_map =
    SMap.fold
      (fun child p acc ->
        let existing = match SMap.find_opt p acc with Some c -> c | None -> [] in
        SMap.add p (existing @ [ child ]) acc)
      parent_map SMap.empty
  in
  (* Keep children in atom order for deterministic traversals. *)
  let order = Cq.relation_names cq in
  let rank r =
    let rec loop i = function
      | [] -> max_int
      | x :: rest -> if String.equal x r then i else loop (i + 1) rest
    in
    loop 0 order
  in
  let children_map =
    SMap.map
      (fun c -> List.sort (fun a b -> Int.compare (rank a) (rank b)) c)
      children_map
  in
  let t = { cq; root; parent_map; children_map } in
  (* Reachability from the root must cover all atoms exactly once. *)
  let reached = pre_order t in
  let sorted_reached = List.sort String.compare reached in
  let sorted_nodes = List.sort String.compare (nodes t) in
  if sorted_reached <> sorted_nodes then
    Errors.schema_errorf
      "join tree for %s is not a spanning tree (reached %d of %d atoms)"
      (Cq.name cq) (List.length reached) (List.length (nodes t));
  validate t;
  t

let make cq ~root ~parents =
  if not (Cq.mem_relation cq root) then
    Errors.schema_errorf "join tree root %s is not an atom of %s" root
      (Cq.name cq);
  let parent_map =
    List.fold_left
      (fun acc (child, p) ->
        if not (Cq.mem_relation cq child && Cq.mem_relation cq p) then
          Errors.schema_errorf "join tree edge %s -> %s mentions a non-atom"
            child p;
        if SMap.mem child acc then
          Errors.schema_errorf "join tree gives %s two parents" child;
        SMap.add child p acc)
      SMap.empty parents
  in
  if SMap.mem root parent_map then
    Errors.schema_errorf "join tree root %s has a parent" root;
  build cq root parent_map

let of_cq cq =
  if not (Cq.is_connected cq) then
    Errors.schema_errorf
      "CQ %s is disconnected; build join trees per component" (Cq.name cq);
  match Gyo.decompose cq with
  | Gyo.Cyclic _ -> None
  | Gyo.Acyclic steps ->
      (* A connected query's only witness-free ear is its last one. *)
      let root, parent_map =
        List.fold_left
          (fun (root, acc) { Gyo.ear; witness } ->
            match witness with
            | Some w -> (root, SMap.add ear w acc)
            | None -> (Some ear, acc))
          (None, SMap.empty) steps
      in
      match root with
      | Some root -> Some (build cq root parent_map)
      | None ->
          Errors.schema_errorf "CQ %s has no atom to root a join tree at"
            (Cq.name cq)

let of_cq_exn cq =
  match of_cq cq with
  | Some t -> t
  | None -> Errors.schema_errorf "CQ %s is cyclic" (Cq.name cq)

let pp ppf t =
  let rec pp_node ppf node =
    match children t node with
    | [] -> Format.fprintf ppf "%s" node
    | kids ->
        Format.fprintf ppf "%s(%a)" node
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
             pp_node)
          kids
  in
  pp_node ppf t.root
