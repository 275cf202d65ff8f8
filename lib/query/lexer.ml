type token = Ident of string | Int of int | Str of string | Sym of string

exception Syntax_error of string * Srcspan.t

let fail span fmt =
  Format.kasprintf (fun s -> raise (Syntax_error (s, span))) fmt

let is_digit c = c >= '0' && c <= '9'

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || is_digit c || c = '_' || c = '\''

let tokenize input =
  let n = String.length input in
  let tokens = ref [] in
  let i = ref 0 in
  let next_is c = !i + 1 < n && input.[!i + 1] = c in
  (* [skip p] advances past the characters satisfying [p]. *)
  let skip p =
    while !i < n && p input.[!i] do
      incr i
    done
  in
  let push start t = tokens := (t, Srcspan.make start !i) :: !tokens in
  let sym len =
    let start = !i in
    i := start + len;
    push start (Sym (String.sub input start len))
  in
  while !i < n do
    let start = !i in
    match input.[start] with
    | ' ' | '\t' | '\n' | '\r' -> incr i
    | '%' -> skip (fun c -> c <> '\n')
    | '-' when next_is '-' -> skip (fun c -> c <> '\n')
    | '(' | ')' | ',' | '.' | ';' | '*' | '=' -> sym 1
    | '<' when next_is '=' || next_is '>' -> sym 2
    | '>' when next_is '=' -> sym 2
    | '<' | '>' -> sym 1
    | '!' when next_is '=' -> sym 2
    | ':' when next_is '-' -> sym 2
    | '!' -> fail (Srcspan.make start (start + 1)) "expected '=' after '!'"
    | ':' -> fail (Srcspan.make start (start + 1)) "expected '-' after ':'"
    | '\'' ->
        incr i;
        skip (fun c -> c <> '\'');
        if !i >= n then
          fail (Srcspan.make start n) "unterminated string literal";
        incr i;
        push start (Str (String.sub input (start + 1) (!i - start - 2)))
    | c when is_digit c || (c = '-' && !i + 1 < n && is_digit input.[!i + 1])
      -> (
        incr i;
        skip is_digit;
        let digits = String.sub input start (!i - start) in
        match int_of_string_opt digits with
        | Some v -> push start (Int v)
        | None ->
            fail (Srcspan.make start !i) "integer %s is out of range" digits)
    | c when is_ident_char c ->
        skip is_ident_char;
        push start (Ident (String.sub input start (!i - start)))
    | c -> fail (Srcspan.make start (start + 1)) "unexpected character %C" c
  done;
  List.rev !tokens

let describe = function
  | Ident s -> "identifier " ^ s
  | Int n -> "integer " ^ string_of_int n
  | Str s -> Printf.sprintf "string %S" s
  | Sym s -> Printf.sprintf "'%s'" s

type state = { mutable rest : (token * Srcspan.t) list; eof : Srcspan.t }

let run parse input =
  match
    parse { rest = tokenize input; eof = Srcspan.point (String.length input) }
  with
  | v -> Ok v
  | exception Syntax_error (msg, span) -> Error (msg, Some span)

let message input = function
  | msg, None -> msg
  | msg, Some span ->
      Format.asprintf "%s at %a" msg (Srcspan.pp_in input) span

let peek st = match st.rest with (t, _) :: _ -> Some t | [] -> None
let junk st = match st.rest with _ :: rest -> st.rest <- rest | [] -> ()
let next_span st = match st.rest with (_, span) :: _ -> span | [] -> st.eof

let span_from st start =
  let here = (next_span st).Srcspan.start_ofs in
  Srcspan.join start (Srcspan.point here)

let expected st what =
  match st.rest with
  | (t, span) :: _ -> fail span "expected %s, got %s" what (describe t)
  | [] -> fail st.eof "expected %s, got end of input" what

let accept st t =
  match st.rest with
  | (t', _) :: rest when t' = t ->
      st.rest <- rest;
      true
  | _ -> false

let expect st t =
  let span = next_span st in
  if accept st t then span else expected st (describe t)

let ident st what =
  match st.rest with
  | (Ident s, span) :: rest ->
      st.rest <- rest;
      (s, span)
  | _ -> expected st what

let comparison st =
  let op =
    match peek st with
    | Some (Sym "=") -> Some Constraints.Eq
    | Some (Sym ("!=" | "<>")) -> Some Constraints.Neq
    | Some (Sym "<") -> Some Constraints.Lt
    | Some (Sym "<=") -> Some Constraints.Le
    | Some (Sym ">") -> Some Constraints.Gt
    | Some (Sym ">=") -> Some Constraints.Ge
    | _ -> None
  in
  if op <> None then junk st;
  op

let finish st terminator =
  ignore (accept st terminator);
  match st.rest with
  | [] -> ()
  | (t, span) :: _ -> fail span "unexpected %s after the query" (describe t)

let sep_by1 sep p st =
  let rec loop acc =
    let x = p st in
    if sep st then loop (x :: acc) else List.rev (x :: acc)
  in
  loop []
