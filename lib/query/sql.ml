open Tsens_relational

type error = Syntax of string | Semantic of string * Srcspan.t

exception Sql_error of error

let fail span fmt =
  Format.kasprintf (fun s -> raise (Sql_error (Semantic (s, span)))) fmt

let message input = function
  | Syntax m -> m
  | Semantic (m, span) -> Lexer.message input (m, Some span)

let catalog_of_database db =
  Database.fold
    (fun name rel acc -> (name, Schema.attrs (Relation.schema rel)) :: acc)
    db []
  |> List.rev

(* ------------------------------------------------------------------ *)
(* Parser *)

let keyword w = String.uppercase_ascii w

let is_reserved w =
  List.mem (keyword w) [ "SELECT"; "COUNT"; "FROM"; "WHERE"; "AS"; "AND" ]

let accept_keyword kw st =
  match Lexer.peek st with
  | Some (Lexer.Ident w) when keyword w = kw ->
      Lexer.junk st;
      true
  | _ -> false

let expect_keyword st kw =
  if not (accept_keyword kw st) then Lexer.expected st kw

let expect_sym st s = ignore (Lexer.expect st (Lexer.Sym s))

type colref = { alias : string option; column : string }

type cond =
  | Join of colref * colref
  | Select of colref * Constraints.op * Value.t

let parse_operand st =
  let operand =
    match Lexer.peek st with
    | Some (Lexer.Ident w) when not (is_reserved w) -> (
        match keyword w with
        | "TRUE" -> `Literal (Value.bool true)
        | "FALSE" -> `Literal (Value.bool false)
        | _ -> `Col w)
    | Some (Lexer.Int n) -> `Literal (Value.int n)
    | Some (Lexer.Str s) -> `Literal (Value.str s)
    | _ -> Lexer.expected st "a column or literal"
  in
  Lexer.junk st;
  match operand with
  | `Col first when Lexer.accept st (Lexer.Sym ".") ->
      let column, _ = Lexer.ident st "column name" in
      `Col { alias = Some first; column }
  | `Col column -> `Col { alias = None; column }
  | `Literal v -> `Literal v

let parse_cond st =
  let start = Lexer.next_span st in
  let left = parse_operand st in
  let op =
    match Lexer.comparison st with
    | Some op -> op
    | None -> Lexer.expected st "a comparison operator"
  in
  let right = parse_operand st in
  let span = Lexer.span_from st start in
  match (left, op, right) with
  | `Col a, Constraints.Eq, `Col b -> (Join (a, b), span)
  | `Col _, _, `Col _ ->
      Lexer.fail span "only equality joins between columns are supported"
  | `Col a, op, `Literal v -> (Select (a, op, v), span)
  | `Literal v, op, `Col a ->
      (* flip the comparison *)
      let flipped =
        match op with
        | Constraints.Eq -> Constraints.Eq
        | Constraints.Neq -> Constraints.Neq
        | Constraints.Lt -> Constraints.Gt
        | Constraints.Le -> Constraints.Ge
        | Constraints.Gt -> Constraints.Lt
        | Constraints.Ge -> Constraints.Le
      in
      (Select (a, flipped, v), span)
  | `Literal _, _, `Literal _ ->
      Lexer.fail span "comparison between two literals"

type from_item = { table : string; alias : string; item_span : Srcspan.t }

let parse_from_item st =
  let table, table_span = Lexer.ident st "table name" in
  let item alias alias_span =
    { table; alias; item_span = Srcspan.join table_span alias_span }
  in
  match Lexer.peek st with
  | Some (Lexer.Ident w) when keyword w = "AS" ->
      Lexer.junk st;
      let alias, alias_span = Lexer.ident st "alias" in
      item alias alias_span
  | Some (Lexer.Ident w) when not (is_reserved w) ->
      let alias_span = Lexer.next_span st in
      Lexer.junk st;
      item w alias_span
  | _ -> item table table_span

let parse_query st =
  expect_keyword st "SELECT";
  expect_keyword st "COUNT";
  List.iter (expect_sym st) [ "("; "*"; ")" ];
  expect_keyword st "FROM";
  let from =
    Lexer.sep_by1 (fun st -> Lexer.accept st (Lexer.Sym ",")) parse_from_item st
  in
  let conds =
    if accept_keyword "WHERE" st then
      Lexer.sep_by1 (accept_keyword "AND") parse_cond st
    else []
  in
  Lexer.finish st (Lexer.Sym ";");
  (from, conds)

let parse_from input = Result.map fst (Lexer.run parse_query input)

(* ------------------------------------------------------------------ *)
(* Translation *)

module Node = struct
  type t = string * string (* alias, column *)

  let compare = compare
end

module NodeMap = Map.Make (Node)

type translation = {
  query : Cq.t;
  constraints : Constraints.t list;
  renamings : (string * (Attr.t * Attr.t) list) list;
}

let translate ~catalog input =
  let from, conds =
    match Lexer.run parse_query input with
    | Ok parsed -> parsed
    | Error e -> raise (Sql_error (Syntax (Lexer.message input e)))
  in
  (* Resolve tables and aliases. *)
  let seen_aliases = Hashtbl.create 8 and seen_tables = Hashtbl.create 8 in
  let aliases =
    List.map
      (fun { table; alias; item_span } ->
        (match List.assoc_opt table catalog with
        | Some _ -> ()
        | None -> fail item_span "unknown table %s" table);
        if Hashtbl.mem seen_tables table then
          fail item_span "table %s appears twice: self-joins are not supported"
            table;
        if Hashtbl.mem seen_aliases alias then
          fail item_span "duplicate alias %s" alias;
        Hashtbl.add seen_tables table ();
        Hashtbl.add seen_aliases alias ();
        (alias, table))
      from
  in
  let item_span alias =
    (List.find (fun item -> String.equal item.alias alias) from).item_span
  in
  let columns_of alias =
    let table = List.assoc alias aliases in
    List.assoc table catalog
  in
  (* A column reference of the condition at [span]. *)
  let resolve span { alias; column } =
    match alias with
    | Some a ->
        if not (List.mem_assoc a aliases) then fail span "unknown alias %s" a;
        if not (List.mem column (columns_of a)) then
          fail span "table %s (alias %s) has no column %s"
            (List.assoc a aliases) a column;
        (a, column)
    | None -> (
        let homes =
          List.filter (fun (a, _) -> List.mem column (columns_of a)) aliases
        in
        match homes with
        | [ (a, _) ] -> (a, column)
        | [] -> fail span "no table has a column %s" column
        | _ ->
            fail span "column %s is ambiguous (qualify it with an alias)"
              column)
  in
  (* Union-find over column references, seeded by every column. *)
  let parent = ref NodeMap.empty in
  let rec find x =
    match NodeMap.find_opt x !parent with
    | None | Some None -> x
    | Some (Some p) ->
        let root = find p in
        parent := NodeMap.add x (Some root) !parent;
        root
  in
  let union x y =
    let rx = find x and ry = find y in
    if rx <> ry then parent := NodeMap.add rx (Some ry) !parent
  in
  List.iter
    (fun (alias, _) ->
      List.iter
        (fun column -> parent := NodeMap.add (alias, column) None !parent)
        (columns_of alias))
    aliases;
  List.iter
    (function
      | Join (a, b), span -> union (resolve span a) (resolve span b)
      | Select _, _ -> ())
    conds;
  (* Group into classes. *)
  let classes = Hashtbl.create 16 in
  NodeMap.iter
    (fun node _ ->
      let root = find node in
      let members =
        match Hashtbl.find_opt classes root with Some m -> m | None -> []
      in
      Hashtbl.replace classes root (node :: members))
    !parent;
  (* Pick a variable name per class: the bare column name when every
     member shares it and no other class uses it; otherwise alias_column
     of the smallest member; then de-duplicate. *)
  let column_name_classes = Hashtbl.create 16 in
  Hashtbl.iter
    (fun root members ->
      match members with
      | (_, c) :: rest when List.for_all (fun (_, c') -> String.equal c c') rest
        ->
          Hashtbl.replace column_name_classes c
            (root :: Option.value ~default:[] (Hashtbl.find_opt column_name_classes c))
      | _ -> ())
    classes;
  let used = Hashtbl.create 16 in
  let name_of_root = Hashtbl.create 16 in
  let fresh base =
    if not (Hashtbl.mem used base) then begin
      Hashtbl.add used base ();
      base
    end
    else begin
      let rec go i =
        let candidate = Printf.sprintf "%s_%d" base i in
        if Hashtbl.mem used candidate then go (i + 1)
        else begin
          Hashtbl.add used candidate ();
          candidate
        end
      in
      go 2
    end
  in
  let sorted_roots =
    Hashtbl.fold (fun root members acc -> (root, members) :: acc) classes []
    |> List.sort (fun (r1, _) (r2, _) -> Node.compare r1 r2)
  in
  List.iter
    (fun (root, members) ->
      let members = List.sort Node.compare members in
      let base =
        match members with
        | (a, c) :: rest ->
            let homogeneous =
              List.for_all (fun (_, c') -> String.equal c c') rest
            in
            let unique_owner =
              match Hashtbl.find_opt column_name_classes c with
              | Some [ _ ] -> true
              | _ -> false
            in
            if homogeneous && unique_owner then c
            else Printf.sprintf "%s_%s" a c
        | [] ->
            (* Every class is seeded with at least the node it was created
               for; an empty member list would be a union-find bookkeeping
               bug, so name the root to make it debuggable. *)
            Printf.ksprintf failwith
              "internal: empty column equivalence class rooted at %s.%s"
              (fst root) (snd root)
      in
      Hashtbl.replace name_of_root root (fresh base))
    sorted_roots;
  let var_of node = Hashtbl.find name_of_root (find node) in
  (* Atoms, named after the tables, columns renamed to class variables. *)
  let atoms =
    List.map
      (fun (alias, table) ->
        let vars =
          List.map (fun column -> var_of (alias, column)) (columns_of alias)
        in
        (* Two columns of one table in the same class would collapse the
           schema (R.a = R.b): reject clearly. *)
        let dedup = List.sort_uniq String.compare vars in
        if List.length dedup <> List.length vars then
          fail (item_span alias)
            "conditions equate two columns of table %s; per-table column \
             equalities are not supported"
            table;
        (table, vars))
      aliases
  in
  let cq = Cq.make atoms in
  let constraints =
    List.filter_map
      (function
        | Select (col, op, value), span ->
            Some { Constraints.var = var_of (resolve span col); op; value }
        | Join _, _ -> None)
      conds
  in
  let renamings =
    List.map
      (fun (alias, table) ->
        let pairs =
          List.filter_map
            (fun column ->
              let var = var_of (alias, column) in
              if String.equal var column then None else Some (column, var))
            (columns_of alias)
        in
        (table, pairs))
      aliases
  in
  { query = cq; constraints; renamings }

let bind t db =
  List.fold_left
    (fun db (table, pairs) ->
      match pairs with
      | [] -> db
      | _ -> Database.update ~name:table (Relation.rename pairs) db)
    db t.renamings
