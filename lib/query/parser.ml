open Tsens_relational

exception Parse_error of string

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

let comma st = Lexer.accept st (Lexer.Sym ",")
let parse_vars = Lexer.sep_by1 comma (fun st -> Lexer.ident st "identifier")

(* head ::= ident [ "(" ( "*" | vars ) ")" ] *)
let parse_head st =
  let name, _ = Lexer.ident st "identifier" in
  let lp = Lexer.next_span st in
  if not (Lexer.accept st (Lexer.Sym "(")) then (name, None)
  else if Lexer.accept st (Lexer.Sym "*") then begin
    ignore (Lexer.expect st (Lexer.Sym ")"));
    (name, None)
  end
  else
    let vars = parse_vars st in
    let rp = Lexer.expect st (Lexer.Sym ")") in
    (name, Some (List.map fst vars, Srcspan.join lp rp))

let parse_literal st =
  let value =
    match Lexer.peek st with
    | Some (Lexer.Int n) -> Value.int n
    | Some (Lexer.Str s) -> Value.str s
    | Some (Lexer.Ident "true") -> Value.bool true
    | Some (Lexer.Ident "false") -> Value.bool false
    | _ -> Lexer.expected st "literal (integer, 'string', true or false)"
  in
  Lexer.junk st;
  value

(* item ::= ident "(" vars ")"  |  ident op literal *)
let parse_item st =
  let name, name_span = Lexer.ident st "identifier" in
  if Lexer.accept st (Lexer.Sym "(") then
    let atom_vars = parse_vars st in
    let rp = Lexer.expect st (Lexer.Sym ")") in
    `Atom
      {
        atom_name = name;
        atom_name_span = name_span;
        atom_vars;
        atom_span = Srcspan.join name_span rp;
      }
  else
    match Lexer.comparison st with
    | Some op ->
        let value = parse_literal st in
        `Constraint
          ({ Constraints.var = name; op; value }, Lexer.span_from st name_span)
    | None -> Lexer.expected st "'(' or a comparison operator"

let parse_raw input =
  input
  |> Lexer.run (fun st ->
         let name, head = parse_head st in
         ignore (Lexer.expect st (Lexer.Sym ":-"));
         let body = Lexer.sep_by1 comma parse_item st in
         Lexer.finish st (Lexer.Sym ".");
         let raw_atoms, raw_constraints =
           List.partition_map
             (function `Atom a -> Either.Left a | `Constraint c -> Right c)
             body
         in
         if raw_atoms = [] then
           Lexer.fail (Srcspan.whole input) "query body has no atoms";
         {
           raw_name = name;
           raw_head = head;
           raw_atoms;
           raw_constraints;
           raw_span = Srcspan.whole input;
         })

let cq_of_raw raw =
  Cq.make ~name:raw.raw_name
    (List.map (fun a -> (a.atom_name, List.map fst a.atom_vars)) raw.raw_atoms)

let parse_full input =
  match parse_raw input with
  | Error e -> raise (Parse_error (Lexer.message input e))
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
