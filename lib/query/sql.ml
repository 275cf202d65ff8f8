open Tsens_relational

exception Sql_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Sql_error s)) fmt

(* Positioned failure: the span is rendered into the [Sql_error] message
   and also kept by [parse_from] for the static analyzer. *)
exception Err of string * Srcspan.t option

let err ?span fmt = Format.kasprintf (fun s -> raise (Err (s, span))) fmt

let catalog_of_database db =
  Database.fold
    (fun name rel acc -> (name, Schema.attrs (Relation.schema rel)) :: acc)
    db []
  |> List.rev

(* ------------------------------------------------------------------ *)
(* Lexer *)

type token =
  | Word of string (* identifier or keyword, original case *)
  | Int of int
  | Str of string
  | Punct of string (* ( ) , . ; * and comparison operators *)

let is_word_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_'

let is_digit c = c >= '0' && c <= '9'

let tokenize input =
  let n = String.length input in
  let tokens = ref [] in
  let i = ref 0 in
  let lex_fail ?(stop = !i + 1) fmt =
    err ~span:(Srcspan.make !i (min stop n)) fmt
  in
  let push ~start ~stop t = tokens := (t, Srcspan.make start stop) :: !tokens in
  let push1 t =
    push ~start:!i ~stop:(!i + 1) t;
    incr i
  in
  let push2 t =
    push ~start:!i ~stop:(!i + 2) t;
    i := !i + 2
  in
  while !i < n do
    let c = input.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '-' && !i + 1 < n && input.[!i + 1] = '-' then
      (* SQL line comment *)
      while !i < n && input.[!i] <> '\n' do
        incr i
      done
    else if c = '(' || c = ')' || c = ',' || c = '.' || c = ';' || c = '*'
    then push1 (Punct (String.make 1 c))
    else if c = '<' then
      if !i + 1 < n && (input.[!i + 1] = '=' || input.[!i + 1] = '>') then
        push2 (Punct (Printf.sprintf "<%c" input.[!i + 1]))
      else push1 (Punct "<")
    else if c = '>' then
      if !i + 1 < n && input.[!i + 1] = '=' then push2 (Punct ">=")
      else push1 (Punct ">")
    else if c = '=' then push1 (Punct "=")
    else if c = '!' then
      if !i + 1 < n && input.[!i + 1] = '=' then push2 (Punct "!=")
      else lex_fail "unexpected '!'"
    else if c = '\'' then begin
      let start = !i + 1 in
      let j = ref start in
      while !j < n && input.[!j] <> '\'' do
        incr j
      done;
      if !j >= n then lex_fail ~stop:n "unterminated string literal";
      push ~start:(start - 1) ~stop:(!j + 1)
        (Str (String.sub input start (!j - start)));
      i := !j + 1
    end
    else if is_digit c || (c = '-' && !i + 1 < n && is_digit input.[!i + 1])
    then begin
      let start = !i in
      incr i;
      while !i < n && is_digit input.[!i] do
        incr i
      done;
      let digits = String.sub input start (!i - start) in
      match int_of_string_opt digits with
      | Some n -> push ~start ~stop:!i (Int n)
      | None ->
          err ~span:(Srcspan.make start !i) "integer %s is out of range" digits
    end
    else if is_word_char c then begin
      let start = !i in
      while !i < n && is_word_char input.[!i] do
        incr i
      done;
      push ~start ~stop:!i (Word (String.sub input start (!i - start)))
    end
    else lex_fail "unexpected character %C" c
  done;
  List.rev !tokens

(* ------------------------------------------------------------------ *)
(* Parser *)

type state = { mutable rest : (token * Srcspan.t) list; eof : Srcspan.t }

let keyword w = String.uppercase_ascii w

let describe = function
  | Word w -> Printf.sprintf "identifier %s" w
  | Int n -> Printf.sprintf "integer %d" n
  | Str s -> Printf.sprintf "string %S" s
  | Punct p -> Printf.sprintf "%S" p

let parse_fail st what =
  match st.rest with
  | (t, span) :: _ -> err ~span "expected %s, got %s" what (describe t)
  | [] -> err ~span:st.eof "expected %s, got end of input" what

let expect st what pred =
  match st.rest with
  | (t, span) :: rest when pred t ->
      st.rest <- rest;
      (t, span)
  | _ -> parse_fail st what

let expect_keyword st kw =
  ignore (expect st kw (function Word w -> keyword w = kw | _ -> false))

let expect_punct st p =
  ignore (expect st (Printf.sprintf "%S" p) (function
    | Punct q -> q = p
    | _ -> false))

let is_reserved w =
  List.mem (keyword w) [ "SELECT"; "COUNT"; "FROM"; "WHERE"; "AS"; "AND" ]

(* Direct pattern match — no catch-all [assert false] left to reach on
   malformed input. *)
let parse_word st what =
  match st.rest with
  | (Word w, span) :: rest ->
      st.rest <- rest;
      (w, span)
  | _ -> parse_fail st what

type colref = { alias : string option; column : string }

type cond =
  | Join of colref * colref
  | Select of colref * Constraints.op * Value.t

let parse_colref_from st first =
  match st.rest with
  | (Punct ".", _) :: rest ->
      st.rest <- rest;
      let column, _ = parse_word st "column name" in
      { alias = Some first; column }
  | _ -> { alias = None; column = first }

let parse_operand st =
  match st.rest with
  | (Word w, _) :: rest when not (is_reserved w) ->
      st.rest <- rest;
      if keyword w = "TRUE" then `Literal (Value.bool true)
      else if keyword w = "FALSE" then `Literal (Value.bool false)
      else `Col (parse_colref_from st w)
  | (Int n, _) :: rest ->
      st.rest <- rest;
      `Literal (Value.int n)
  | (Str s, _) :: rest ->
      st.rest <- rest;
      `Literal (Value.str s)
  | _ -> parse_fail st "a column or literal"

let parse_op st =
  match st.rest with
  | (Punct p, span) :: rest -> (
      let op =
        match p with
        | "=" -> Some Constraints.Eq
        | "!=" | "<>" -> Some Constraints.Neq
        | "<" -> Some Constraints.Lt
        | "<=" -> Some Constraints.Le
        | ">" -> Some Constraints.Gt
        | ">=" -> Some Constraints.Ge
        | _ -> None
      in
      match op with
      | Some op ->
          st.rest <- rest;
          op
      | None -> err ~span "expected a comparison operator, got %S" p)
  | _ -> parse_fail st "a comparison operator"

let cond_span st start =
  let stop =
    match st.rest with
    | (_, next) :: _ -> next.Srcspan.start_ofs
    | [] -> st.eof.Srcspan.start_ofs
  in
  Srcspan.join start (Srcspan.make stop stop)

let parse_cond st =
  let start =
    match st.rest with
    | (_, span) :: _ -> span
    | [] -> st.eof
  in
  let left = parse_operand st in
  let op = parse_op st in
  let right = parse_operand st in
  let span = cond_span st start in
  match (left, op, right) with
  | `Col a, Constraints.Eq, `Col b -> (Join (a, b), span)
  | `Col _, _, `Col _ ->
      err ~span "only equality joins between columns are supported"
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
  | `Literal _, _, `Literal _ -> err ~span "comparison between two literals"

type from_item = { table : string; alias : string; item_span : Srcspan.t }

let parse_from_item st =
  let table, table_span = parse_word st "table name" in
  match st.rest with
  | (Word w, _) :: rest when keyword w = "AS" ->
      st.rest <- rest;
      let alias, alias_span = parse_word st "alias" in
      { table; alias; item_span = Srcspan.join table_span alias_span }
  | (Word w, alias_span) :: rest when not (is_reserved w) ->
      st.rest <- rest;
      { table; alias = w; item_span = Srcspan.join table_span alias_span }
  | _ -> { table; alias = table; item_span = table_span }

let parse_query input =
  let st =
    { rest = tokenize input; eof = Srcspan.point (String.length input) }
  in
  expect_keyword st "SELECT";
  expect_keyword st "COUNT";
  expect_punct st "(";
  expect_punct st "*";
  expect_punct st ")";
  expect_keyword st "FROM";
  let rec from_items acc =
    let item = parse_from_item st in
    match st.rest with
    | (Punct ",", _) :: rest ->
        st.rest <- rest;
        from_items (item :: acc)
    | _ -> List.rev (item :: acc)
  in
  let from = from_items [] in
  let conds =
    match st.rest with
    | (Word w, _) :: rest when keyword w = "WHERE" ->
        st.rest <- rest;
        let rec loop acc =
          let c = parse_cond st in
          match st.rest with
          | (Word w, _) :: rest when keyword w = "AND" ->
              st.rest <- rest;
              loop (c :: acc)
          | _ -> List.rev (c :: acc)
        in
        loop []
    | _ -> []
  in
  (match st.rest with
  | [] | [ (Punct ";", _) ] -> ()
  | (t, span) :: _ -> err ~span "unexpected %s after the query" (describe t));
  (from, conds)

let parse_from input =
  match parse_query input with
  | from, _ -> Ok from
  | exception Err (msg, span) -> Error (msg, span)

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
    try parse_query input with
    | Err (msg, None) -> fail "%s" msg
    | Err (msg, Some span) ->
        fail "%s at %s" msg (Format.asprintf "%a" (Srcspan.pp_in input) span)
  in
  let conds = List.map fst conds in
  (* Resolve tables and aliases. *)
  let seen_aliases = Hashtbl.create 8 and seen_tables = Hashtbl.create 8 in
  let aliases =
    List.map
      (fun { table; alias; _ } ->
        (match List.assoc_opt table catalog with
        | Some _ -> ()
        | None -> fail "unknown table %s" table);
        if Hashtbl.mem seen_tables table then
          fail "table %s appears twice: self-joins are not supported" table;
        if Hashtbl.mem seen_aliases alias then fail "duplicate alias %s" alias;
        Hashtbl.add seen_tables table ();
        Hashtbl.add seen_aliases alias ();
        (alias, table))
      from
  in
  let columns_of alias =
    let table = List.assoc alias aliases in
    List.assoc table catalog
  in
  let resolve { alias; column } =
    match alias with
    | Some a ->
        if not (List.mem_assoc a aliases) then fail "unknown alias %s" a;
        if not (List.mem column (columns_of a)) then
          fail "table %s (alias %s) has no column %s" (List.assoc a aliases) a
            column;
        (a, column)
    | None -> (
        let homes =
          List.filter (fun (a, _) -> List.mem column (columns_of a)) aliases
        in
        match homes with
        | [ (a, _) ] -> (a, column)
        | [] -> fail "no table has a column %s" column
        | _ ->
            fail "column %s is ambiguous (qualify it with an alias)" column)
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
      | Join (a, b) -> union (resolve a) (resolve b)
      | Select _ -> ())
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
            fail "internal: empty column equivalence class rooted at %s.%s"
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
          fail
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
        | Select (col, op, value) ->
            Some { Constraints.var = var_of (resolve col); op; value }
        | Join _ -> None)
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
