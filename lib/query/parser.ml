open Tsens_relational

exception Parse_error of string

(* Internal error carrier: a message plus the span it points at. The
   public surfaces re-raise it either as [Parse_error] (with the position
   rendered into the message) or return it as data ([parse_raw]) so the
   static analyzer can attach a source span to the diagnostic. *)
exception Err of string * Srcspan.t option

let err ?span fmt = Format.kasprintf (fun s -> raise (Err (s, span))) fmt

type token =
  | Ident of string
  | IntLit of int
  | StrLit of string
  | Lparen
  | Rparen
  | Comma
  | Turnstile
  | Dot
  | Star
  | Cmp of Constraints.op

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

let is_digit c = c >= '0' && c <= '9'

let tokenize input =
  let n = String.length input in
  let tokens = ref [] in
  let i = ref 0 in
  let fail ?(stop = !i + 1) fmt =
    err ~span:(Srcspan.make !i (min stop n)) fmt
  in
  (* [push1 t] is a single-character token at the cursor. *)
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
    else if c = '%' then
      while !i < n && input.[!i] <> '\n' do
        incr i
      done
    else if c = '(' then push1 Lparen
    else if c = ')' then push1 Rparen
    else if c = ',' then push1 Comma
    else if c = '.' then push1 Dot
    else if c = '*' then push1 Star
    else if c = '=' then push1 (Cmp Constraints.Eq)
    else if c = '!' then
      if !i + 1 < n && input.[!i + 1] = '=' then push2 (Cmp Constraints.Neq)
      else fail "expected '=' after '!'"
    else if c = '<' then
      if !i + 1 < n && input.[!i + 1] = '=' then push2 (Cmp Constraints.Le)
      else push1 (Cmp Constraints.Lt)
    else if c = '>' then
      if !i + 1 < n && input.[!i + 1] = '=' then push2 (Cmp Constraints.Ge)
      else push1 (Cmp Constraints.Gt)
    else if c = ':' then
      if !i + 1 < n && input.[!i + 1] = '-' then push2 Turnstile
      else fail "expected '-' after ':'"
    else if c = '\'' then begin
      (* quoted string literal, no escapes *)
      let start = !i + 1 in
      let j = ref start in
      while !j < n && input.[!j] <> '\'' do
        incr j
      done;
      if !j >= n then fail ~stop:n "unterminated string literal";
      push ~start:(start - 1) ~stop:(!j + 1)
        (StrLit (String.sub input start (!j - start)));
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
      | Some n -> push ~start ~stop:!i (IntLit n)
      | None ->
          err ~span:(Srcspan.make start !i) "integer %s is out of range" digits
    end
    else if is_ident_char c then begin
      let start = !i in
      while !i < n && is_ident_char input.[!i] do
        incr i
      done;
      push ~start ~stop:!i (Ident (String.sub input start (!i - start)))
    end
    else fail "unexpected character %C" c
  done;
  List.rev !tokens

type state = { mutable rest : (token * Srcspan.t) list; eof : Srcspan.t }

let pp_token ppf = function
  | Ident s -> Format.fprintf ppf "identifier %s" s
  | IntLit n -> Format.fprintf ppf "integer %d" n
  | StrLit s -> Format.fprintf ppf "string %S" s
  | Lparen -> Format.pp_print_string ppf "'('"
  | Rparen -> Format.pp_print_string ppf "')'"
  | Comma -> Format.pp_print_string ppf "','"
  | Turnstile -> Format.pp_print_string ppf "':-'"
  | Dot -> Format.pp_print_string ppf "'.'"
  | Star -> Format.pp_print_string ppf "'*'"
  | Cmp op -> Format.fprintf ppf "'%a'" Constraints.pp_op op

let fail_token st expected =
  match st.rest with
  | [] -> err ~span:st.eof "expected %s, got end of input" expected
  | (t, span) :: _ -> err ~span "expected %s, got %a" expected pp_token t

let eat st expected_desc pred =
  match st.rest with
  | (t, span) :: rest when pred t ->
      st.rest <- rest;
      (t, span)
  | _ -> fail_token st expected_desc

(* Direct pattern match — no catch-all [assert false] left to reach on
   malformed input. *)
let eat_ident st =
  match st.rest with
  | (Ident s, span) :: rest ->
      st.rest <- rest;
      (s, span)
  | _ -> fail_token st "identifier"

let parse_vars st =
  let rec loop acc =
    let v = eat_ident st in
    match st.rest with
    | (Comma, _) :: rest ->
        st.rest <- rest;
        loop (v :: acc)
    | _ -> List.rev (v :: acc)
  in
  loop []

type raw_atom = {
  atom_name : string;
  atom_name_span : Srcspan.t;
  atom_vars : (string * Srcspan.t) list;
  atom_span : Srcspan.t;
}

type raw = {
  raw_name : string;
  raw_head : (string list * Srcspan.t) option;
  raw_atoms : raw_atom list;
  raw_constraints : (Constraints.t * Srcspan.t) list;
  raw_span : Srcspan.t;
}

(* head ::= ident [ "(" ( "*" | vars ) ")" ] *)
let parse_head st =
  let name, _ = eat_ident st in
  match st.rest with
  | (Lparen, _) :: (Star, _) :: (Rparen, _) :: rest ->
      st.rest <- rest;
      (name, None)
  | (Lparen, lp) :: rest ->
      st.rest <- rest;
      let vars = parse_vars st in
      let _, rp = eat st "')'" (function Rparen -> true | _ -> false) in
      (name, Some (List.map fst vars, Srcspan.join lp rp))
  | _ -> (name, None)

let parse_literal st =
  match st.rest with
  | (IntLit n, _) :: rest ->
      st.rest <- rest;
      Value.int n
  | (StrLit s, _) :: rest ->
      st.rest <- rest;
      Value.str s
  | (Ident "true", _) :: rest ->
      st.rest <- rest;
      Value.bool true
  | (Ident "false", _) :: rest ->
      st.rest <- rest;
      Value.bool false
  | _ -> fail_token st "literal (integer, 'string', true or false)"

(* item ::= ident "(" vars ")"  |  ident op literal *)
let parse_item st =
  let name, name_span = eat_ident st in
  match st.rest with
  | (Lparen, _) :: rest ->
      st.rest <- rest;
      let vars = parse_vars st in
      let _, rp = eat st "')'" (function Rparen -> true | _ -> false) in
      `Atom
        {
          atom_name = name;
          atom_name_span = name_span;
          atom_vars = vars;
          atom_span = Srcspan.join name_span rp;
        }
  | (Cmp op, _) :: rest ->
      st.rest <- rest;
      let value = parse_literal st in
      (* The literal's span ends where the parser now stands. *)
      let stop =
        match st.rest with
        | (_, next) :: _ -> next.Srcspan.start_ofs
        | [] -> st.eof.Srcspan.start_ofs
      in
      `Constraint
        ( { Constraints.var = name; op; value },
          Srcspan.join name_span (Srcspan.make stop stop) )
  | _ -> fail_token st "'(' or a comparison operator"

let parse_raw input =
  match
    let st =
      { rest = tokenize input; eof = Srcspan.point (String.length input) }
    in
    let name, head = parse_head st in
    let (_ : token * Srcspan.t) =
      eat st "':-'" (function Turnstile -> true | _ -> false)
    in
    let rec items acc =
      let item = parse_item st in
      match st.rest with
      | (Comma, _) :: rest ->
          st.rest <- rest;
          items (item :: acc)
      | _ -> List.rev (item :: acc)
    in
    let body = items [] in
    (match st.rest with
    | [] -> ()
    | [ (Dot, _) ] -> ()
    | _ -> fail_token st "'.' or end of input");
    let raw_atoms =
      List.filter_map (function `Atom a -> Some a | `Constraint _ -> None) body
    in
    let raw_constraints =
      List.filter_map
        (function `Constraint c -> Some c | `Atom _ -> None)
        body
    in
    if raw_atoms = [] then
      err ~span:(Srcspan.whole input) "query body has no atoms";
    {
      raw_name = name;
      raw_head = head;
      raw_atoms;
      raw_constraints;
      raw_span = Srcspan.whole input;
    }
  with
  | raw -> Ok raw
  | exception Err (msg, span) -> Error (msg, span)

let cq_of_raw raw =
  Cq.make ~name:raw.raw_name
    (List.map (fun a -> (a.atom_name, List.map fst a.atom_vars)) raw.raw_atoms)

let parse_full input =
  match parse_raw input with
  | Error (msg, None) -> raise (Parse_error msg)
  | Error (msg, Some span) ->
      raise
        (Parse_error
           (Format.asprintf "%s at %a" msg (Srcspan.pp_in input) span))
  | Ok raw ->
      let cq = cq_of_raw raw in
      let constraints = List.map fst raw.raw_constraints in
      Constraints.check cq constraints;
      (match raw.raw_head with
      | None -> ()
      | Some (vars, _) ->
          let body_vars = List.sort String.compare (Cq.vars cq) in
          let head_sorted = List.sort String.compare vars in
          if body_vars <> head_sorted then
            Errors.schema_errorf
              "head of %s must list exactly the body variables (%s), got (%s)"
              raw.raw_name
              (String.concat ", " body_vars)
              (String.concat ", " head_sorted));
      (cq, constraints)

let parse input =
  match parse_full input with
  | cq, [] -> cq
  | cq, constraints ->
      Errors.schema_errorf
        "query %s has selection constraints (%s); use Parser.parse_full"
        (Cq.name cq)
        (Format.asprintf "%a" Constraints.pp_list constraints)

let parse_opt input =
  match parse input with
  | cq -> Some cq
  | exception (Parse_error _ | Errors.Schema_error _) -> None
