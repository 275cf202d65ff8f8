open Tsens_relational
open Tsens_query

type catalog = (string * string list) list
type stats = (string * Count.t) list

type dp_config = {
  epsilon : float;
  threshold_fraction : float;
  ell : int;
  private_relation : string option;
}

let stats_of_database db =
  Database.fold (fun name rel acc -> (name, Relation.cardinality rel) :: acc) db []
  |> List.rev

(* Internal atom view shared by the datalog, SQL and Cq entry points:
   name, variables, optional source span. *)
type atom_view = {
  a_name : string;
  a_name_span : Srcspan.t option;
  a_vars : string list;
  a_span : Srcspan.t option;
}

let views_of_raw (raw : Parser.raw) =
  List.map
    (fun (a : Parser.raw_atom) ->
      {
        a_name = a.atom_name;
        a_name_span = Some a.atom_name_span;
        a_vars = List.map fst a.atom_vars;
        a_span = Some a.atom_span;
      })
    raw.raw_atoms

let views_of_cq cq =
  List.map
    (fun (a : Cq.atom) ->
      {
        a_name = a.relation;
        a_name_span = None;
        a_vars = Schema.attrs a.schema;
        a_span = None;
      })
    (Cq.atoms cq)

let sorted_uniq l = List.sort_uniq String.compare l

(* ------------------------------------------------------------------ *)
(* Structural checks on the atom list *)

(* TS004: a variable repeated inside one atom collapses its schema. *)
let duplicate_var_checks atoms =
  List.filter_map
    (fun a ->
      let dups =
        List.filter
          (fun v -> List.length (List.filter (String.equal v) a.a_vars) > 1)
          (sorted_uniq a.a_vars)
      in
      match dups with
      | [] -> None
      | _ ->
          Some
            (Diagnostic.error ~code:"TS004" ?span:a.a_span
               (Format.sprintf "atom %s repeats variable%s %s" a.a_name
                  (if List.length dups = 1 then "" else "s")
                  (String.concat ", " dups))))
    atoms

(* TS005: the paper's standing assumption — no self-joins. Flag every
   occurrence after the first, pointing at the repeated atom. *)
let self_join_checks atoms =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun a ->
      if Hashtbl.mem seen a.a_name then
        Some
          (Diagnostic.error ~code:"TS005" ?span:a.a_span
             (Format.sprintf
                "relation %s appears twice (self-joins are unsupported)"
                a.a_name))
      else begin
        Hashtbl.add seen a.a_name ();
        None
      end)
    atoms

(* TS002/TS003: atoms against the catalog. The engines bind atom
   variables to column names positionally-by-name ({!Cq.check_database}
   compares schemas as sets), so conformance means same attribute set. *)
let catalog_checks catalog atoms =
  List.filter_map
    (fun a ->
      match List.assoc_opt a.a_name catalog with
      | None ->
          Some
            (Diagnostic.error ~code:"TS002"
               ?span:(if a.a_name_span <> None then a.a_name_span else a.a_span)
               (Format.sprintf "unknown relation %s (not in the catalog)"
                  a.a_name))
      | Some cols ->
          if sorted_uniq a.a_vars = sorted_uniq cols then None
          else
            Some
              (Diagnostic.error ~code:"TS003" ?span:a.a_span
                 (Format.sprintf
                    "atom %s(%s) does not match the catalog schema %s(%s)"
                    a.a_name
                    (String.concat ", " a.a_vars)
                    a.a_name
                    (String.concat ", " cols))))
    atoms

(* TS006: constraints must select on variables some atom binds. *)
let unbound_constraint_checks atoms constraints =
  let vars = sorted_uniq (List.concat_map (fun a -> a.a_vars) atoms) in
  List.filter_map
    (fun ((c : Constraints.t), span) ->
      if List.exists (String.equal c.Constraints.var) vars then None
      else
        Some
          (Diagnostic.error ~code:"TS006" ?span
             (Format.asprintf
                "constraint %a selects on %s, which no atom binds"
                Constraints.pp c c.Constraints.var)))
    constraints

(* TS007: an explicit head must list exactly the body variables. *)
let head_checks (raw : Parser.raw) atoms =
  match raw.raw_head with
  | None -> []
  | Some (head_vars, span) ->
      let body = sorted_uniq (List.concat_map (fun a -> a.a_vars) atoms) in
      let head = sorted_uniq head_vars in
      let missing = List.filter (fun v -> not (List.mem v head)) body in
      let unbound = List.filter (fun v -> not (List.mem v body)) head in
      if missing = [] && unbound = [] then []
      else
        let part what = function
          | [] -> []
          | vs -> [ Format.sprintf "%s: %s" what (String.concat ", " vs) ]
        in
        [
          Diagnostic.error ~code:"TS007" ~span
            (Format.sprintf
               "head of %s must list exactly the body variables (%s)"
               raw.raw_name
               (String.concat "; "
                  (part "missing from the head" missing
                  @ part "not bound by any atom" unbound)));
        ]

(* ------------------------------------------------------------------ *)
(* Shape checks (need a well-formed Cq) *)

let names_of cq = String.concat ", " (Cq.relation_names cq)

(* TS008 + TS010 + TS009: connectivity, acyclicity with the stuck GYO
   remainder as witness, and the shape report predicting the algorithm. *)
let shape_checks ~span_of ~whole cq =
  let out = ref [] in
  let add d = out := d :: !out in
  let components = Cq.components cq in
  if List.length components > 1 then
    add
      (Diagnostic.warning ~code:"TS008" ?span:whole
         (Format.sprintf
            "query is disconnected (%d components: %s); the join is a cross \
             product and component counts multiply"
            (List.length components)
            (String.concat " | " (List.map names_of components))));
  (* Cyclic components: report the GYO remainder and the auto-GHD width. *)
  let widths =
    List.filter_map
      (fun comp ->
        match Gyo.decompose comp with
        | Gyo.Acyclic _ -> None
        | Gyo.Cyclic residual ->
            let width =
              match Ghd.auto comp with
              | g -> Some (Ghd.width g)
              | exception Errors.Schema_error _ -> None
            in
            let span =
              match Srcspan.join_all (List.filter_map span_of residual) with
              | Some s -> Some s
              | None -> whole
            in
            let width_part =
              match width with
              | Some w ->
                  Format.sprintf
                    "; auto-GHD width %d — TSens joins up to %d atoms per \
                     bag (intermediates up to O(n^%d))"
                    w w w
              | None -> ""
            in
            add
              (Diagnostic.warning ~code:"TS010" ?span
                 (Format.sprintf
                    "cyclic: GYO ear elimination is stuck on {%s} (no \
                     remaining atom is an ear)%s"
                    (String.concat ", " residual)
                    width_part));
            width)
      components
  in
  (* TS009: the predicted algorithm, decided entirely by static shape. *)
  let shape = Classify.classify cq in
  let message =
    match shape with
    | Classify.Path order ->
        Format.sprintf
          "shape: path (%s); predicted algorithm: TSens (Algorithm 2) over \
           the chain join tree, tables factored, O(n log n) — the paper's \
           Algorithm 1"
          (String.concat " - " order)
    | Classify.Doubly_acyclic ->
        "shape: doubly acyclic; predicted algorithm: TSens (Algorithm 2) \
         over the join tree — every botjoin/topjoin stays an acyclic join"
    | Classify.Acyclic ->
        let degree =
          List.fold_left
            (fun acc comp ->
              match Join_tree.of_cq comp with
              | Some jt -> max acc (Join_tree.max_degree jt)
              | None -> acc)
            0 components
        in
        Format.sprintf
          "shape: acyclic; predicted algorithm: TSens (Algorithm 2) over \
           the join tree, max tree degree d = %d (O(m d n^d log n))"
          degree
    | Classify.Cyclic ->
        let width = List.fold_left max 0 widths in
        if width > 0 then
          Format.sprintf
            "shape: cyclic; predicted algorithm: TSens over a GHD (auto \
             width %d), bags act as super-relations"
            width
        else
          "shape: cyclic; predicted algorithm: TSens over a GHD, bags act \
           as super-relations"
  in
  add (Diagnostic.info ~code:"TS009" ?span:whole message);
  List.rev !out

(* TS011: a conjunction of per-variable interval/equality constraints is
   unsatisfiable iff some variable's conjunction is — decided by the
   constraint layer's own witness search. *)
let satisfiability_checks constraints =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun ((c : Constraints.t), _) ->
      let var = c.Constraints.var in
      if Hashtbl.mem seen var then None
      else begin
        Hashtbl.add seen var ();
        let relevant =
          List.filter
            (fun ((c' : Constraints.t), _) ->
              String.equal c'.Constraints.var var)
            constraints
        in
        match Constraints.satisfying_value (List.map fst relevant) var [] with
        | Some _ -> None
        | None ->
            let span =
              Srcspan.join_all (List.filter_map snd relevant)
            in
            Some
              (Diagnostic.warning ~code:"TS011" ?span
                 (Format.asprintf
                    "constraints on %s are unsatisfiable (%a): the query is \
                     empty on every database and all sensitivities are 0"
                    var Constraints.pp_list (List.map fst relevant)))
      end)
    constraints

(* TS016: |Q(D)| <= product of |R_i|; if even the bound saturates the
   63-bit counter, warn that results may report as overflow. *)
let saturation_checks ~whole stats cq =
  let cards =
    List.map (fun r -> (r, List.assoc_opt r stats)) (Cq.relation_names cq)
  in
  if List.exists (fun (_, c) -> c = None) cards then []
  else
    let bound =
      List.fold_left
        (fun acc (_, c) -> Count.mul acc (Option.get c))
        Count.one cards
    in
    if not (Count.is_saturated bound) then []
    else
      [
        Diagnostic.warning ~code:"TS016" ?span:whole
          (Format.sprintf
             "join-count upper bound %s saturates the 63-bit counter; \
              counts and sensitivities may be reported as overflow"
             (String.concat " * "
                (List.map
                   (fun (r, c) ->
                     Format.sprintf "|%s|=%s" r (Count.to_string (Option.get c)))
                   cards)));
      ]

(* ------------------------------------------------------------------ *)
(* DP configuration (TS012–TS015) *)

let check_dp_config ?query ?span dp =
  let out = ref [] in
  let add code msg = out := Diagnostic.error ~code ?span msg :: !out in
  (* [not (> 0)] rather than [<= 0] so NaN is rejected too. *)
  if not (dp.epsilon > 0.0) then add "TS012" "non-positive epsilon";
  if not (dp.threshold_fraction > 0.0 && dp.threshold_fraction < 1.0) then
    add "TS013" "threshold_fraction must be in (0, 1)";
  if dp.ell < 1 then add "TS014" "ell must be at least 1";
  (match (dp.private_relation, query) with
  | Some r, Some cq when not (Cq.mem_relation cq r) ->
      add "TS015"
        (Format.sprintf "private relation %s is not an atom of the query" r)
  | _ -> ());
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Entry points *)

(* Checks that only need a well-formed Cq; shared by all three surfaces. *)
let cq_checks ~span_of ~whole ?stats ?dp cq constraints =
  shape_checks ~span_of ~whole cq
  @ satisfiability_checks constraints
  @ (match stats with
    | None -> []
    | Some stats -> saturation_checks ~whole stats cq)
  @ match dp with None -> [] | Some dp -> check_dp_config ~query:cq ?span:whole dp

let syntax_error ~input (msg, span) =
  Diagnostic.report
    [
      Diagnostic.error ~code:"TS001"
        ~span:(Option.value span ~default:(Srcspan.whole input))
        msg;
    ]

let check_source ?catalog ?stats ?dp input =
  match Parser.parse_raw input with
  | Error e -> syntax_error ~input e
  | Ok raw ->
      let atoms = views_of_raw raw in
      let whole = Some raw.raw_span in
      let constraints =
        List.map (fun (c, sp) -> (c, Some sp)) raw.Parser.raw_constraints
      in
      let structural = duplicate_var_checks atoms @ self_join_checks atoms in
      let surface =
        structural
        @ (match catalog with
          | None -> []
          | Some catalog -> catalog_checks catalog atoms)
        @ unbound_constraint_checks atoms constraints
        @ head_checks raw atoms
      in
      let span_of relation =
        List.find_map
          (fun a -> if String.equal a.a_name relation then a.a_span else None)
          atoms
      in
      let dp_only () =
        match dp with
        | None -> []
        | Some dp -> check_dp_config ?span:whole dp
      in
      let deeper =
        (* Structural errors make the Cq unconstructible; the DP config
           is still checked (sans private-relation membership). *)
        if structural <> [] then dp_only ()
        else
          match Parser.cq_of_raw raw with
          | cq -> cq_checks ~span_of ~whole ?stats ?dp cq constraints
          | exception Errors.Schema_error msg ->
              [ Diagnostic.error ~code:"TS001" ?span:whole msg ]
      in
      Diagnostic.report ~subject:raw.Parser.raw_name (surface @ deeper)

let check_sql ~catalog ?stats ?dp input =
  match Sql.parse_from input with
  | Error e -> syntax_error ~input e
  | Ok from ->
      let whole = Some (Srcspan.whole input) in
      let seen = Hashtbl.create 8 in
      let surface =
        List.concat_map
          (fun (item : Sql.from_item) ->
            let dup =
              if Hashtbl.mem seen item.Sql.table then
                [
                  Diagnostic.error ~code:"TS005" ~span:item.Sql.item_span
                    (Format.sprintf
                       "table %s appears twice (self-joins are unsupported)"
                       item.Sql.table);
                ]
              else begin
                Hashtbl.add seen item.Sql.table ();
                []
              end
            in
            let unknown =
              if List.mem_assoc item.Sql.table catalog then []
              else
                [
                  Diagnostic.error ~code:"TS002" ~span:item.Sql.item_span
                    (Format.sprintf "unknown table %s (not in the catalog)"
                       item.Sql.table);
                ]
            in
            dup @ unknown)
          from
      in
      let dp_only () =
        match dp with
        | None -> []
        | Some dp -> check_dp_config ?span:whole dp
      in
      if surface <> [] then Diagnostic.report (surface @ dp_only ())
      else begin
        match Sql.translate ~catalog input with
        | exception Sql.Sql_error e ->
            let msg, span =
              match e with
              | Sql.Semantic (msg, span) -> (msg, Some span)
              | Sql.Syntax msg -> (msg, whole)
            in
            Diagnostic.report
              (Diagnostic.error ~code:"TS001" ?span msg :: dp_only ())
        | t ->
            let span_of relation =
              List.find_map
                (fun (item : Sql.from_item) ->
                  if String.equal item.Sql.table relation then
                    Some item.Sql.item_span
                  else None)
                from
            in
            let constraints =
              List.map (fun c -> (c, None)) t.Sql.constraints
            in
            Diagnostic.report
              ~subject:(Cq.name t.Sql.query)
              (cq_checks ~span_of ~whole ?stats ?dp t.Sql.query constraints)
      end

let check_cq ?catalog ?stats ?dp ?(constraints = []) cq =
  let atoms = views_of_cq cq in
  let constraints = List.map (fun c -> (c, None)) constraints in
  let surface =
    (match catalog with
    | None -> []
    | Some catalog -> catalog_checks catalog atoms)
    @ unbound_constraint_checks atoms constraints
  in
  Diagnostic.report ~subject:(Cq.name cq)
    (surface
    @ cq_checks ~span_of:(fun _ -> None) ~whole:None ?stats ?dp cq constraints)
