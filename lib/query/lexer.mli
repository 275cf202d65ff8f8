(** The tokenizer and recursive-descent helpers shared by the two query
    front ends, {!Parser} (datalog) and {!Sql}.

    One token set serves both syntaxes, so a lexical rule is decided
    once:

    {v
    blank   ::= ' ' | '\t' | '\r' | '\n'
    comment ::= ('%' | "--") up to the end of the line
    ident   ::= (letter | '_') (letter | digit | '_' | "'")*
    integer ::= '-'? digit+               (must fit an OCaml int)
    string  ::= "'" any character but "'" "'"   (no escapes)
    symbol  ::= "(" | ")" | "," | "." | ";" | "*" | ":-"
              | "=" | "!=" | "<>" | "<" | "<=" | ">" | ">="
    v}

    A symbol that one grammar does not use (";" in datalog, ":-" in SQL)
    is still a token; its parser rejects it with a positioned error.
    Every failure, lexical or syntactic, carries the span it points at. *)

type token =
  | Ident of string  (** identifier or keyword, in its source case *)
  | Int of int
  | Str of string  (** the quoted text, quotes stripped *)
  | Sym of string

exception Syntax_error of string * Srcspan.t

val tokenize : string -> (token * Srcspan.t) list
(** The tokens in source order, each with its span. Raises
    {!Syntax_error} on a lone [!] or [:], an unterminated string, an
    integer out of range or any other character. *)

val fail : Srcspan.t -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raises {!Syntax_error} with a formatted message. *)

(** {1 Parsing a token stream} *)

type state
(** The tokens not consumed yet. *)

val run : (state -> 'a) -> string -> ('a, string * Srcspan.t option) result
(** Tokenizes the source and applies the parser to it, returning any
    {!Syntax_error} as data. *)

val message : string -> string * Srcspan.t option -> string
(** Renders an error of {!run} as [msg at line:col] within the source. *)

val peek : state -> token option
val junk : state -> unit
(** Drops the next token; no-op at the end of input. *)

val accept : state -> token -> bool
(** Consumes the next token if it is the given one. *)

val expect : state -> token -> Srcspan.t
(** Consumes the given token, or fails naming it. *)

val ident : state -> string -> string * Srcspan.t
(** Consumes an identifier, or fails naming what was expected. *)

val comparison : state -> Constraints.op option
(** Consumes a comparison operator ([!=] and [<>] are both [Neq]), if
    one is next. *)

val expected : state -> string -> 'a
(** Fails at the next token: [expected <what>, got <token>]. *)

val finish : state -> token -> unit
(** Consumes the given optional terminator, then fails unless the input
    is exhausted: [unexpected <token> after the query]. *)

val next_span : state -> Srcspan.t
(** The next token's span, or the empty span at the end of input. *)

val span_from : state -> Srcspan.t -> Srcspan.t
(** From the start of the given span up to where the parser now stands
    (the start of the next token, or the end of input). *)

val sep_by1 : (state -> bool) -> (state -> 'a) -> state -> 'a list
(** [sep_by1 sep p] parses [p (sep p)*]. *)
