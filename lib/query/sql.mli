(** A SQL front end for counting queries.

    Translates the paper's query class from its SQL surface form into the
    internal conjunctive-query representation:

    {v
    SELECT COUNT( * )
    FROM Customer c, Orders o, Lineitem l
    WHERE c.CK = o.CK AND o.OK = l.OK AND c.NK = 7
    v}

    The grammar, over {!Lexer}'s tokens (so [--] and [%] start a line
    comment, identifiers may contain ['], and [!=] and [<>] are the same
    operator):

    {v
    query   ::= SELECT COUNT "(" "*" ")" FROM item ("," item)*
                (WHERE cond (AND cond)* )? ";"?
    item    ::= table (AS? alias)?
    cond    ::= operand op operand
    operand ::= column | alias "." column | integer | 'string' | TRUE | FALSE
    op      ::= "=" | "!=" | "<>" | "<" | "<=" | ">" | ">="
    v}

    Equality conditions between columns induce the join variables (a
    union–find over column references — natural-join semantics are *not*
    assumed: only equated columns join); comparisons against literals
    become {!Constraints} (the Section 5.4 selections). Keywords are
    case-insensitive; aliases are optional ([AS] or juxtaposition); only
    [COUNT( * )] heads are accepted, mirroring the paper's query class; a
    table may appear once ([FROM R a, R b] is a self-join, which the
    algorithms do not support).

    Because SQL references columns while CQs share variables by name, the
    translator needs the relations' column lists — the [catalog]. *)

open Tsens_relational

type error =
  | Syntax of string  (** the message, ending in [at line:col] *)
  | Semantic of string * Srcspan.t
      (** the message, and the span of the FROM item or WHERE condition
          at fault *)

exception Sql_error of error

val message : string -> error -> string
(** Renders an error within its source: a semantic error as [msg at
    line:col]. *)

val catalog_of_database : Database.t -> (string * string list) list
(** Relation name → column names, from a live database. *)

type from_item = {
  table : string;
  alias : string;  (** the table name itself when no alias is given *)
  item_span : Srcspan.t;
}

val parse_from : string -> (from_item list, string * Srcspan.t option) result
(** Parses the query's grammar and returns the FROM items with their
    source spans, without resolving anything against a catalog. The
    static analyzer uses this to report duplicate/unknown tables with
    positions before attempting the full {!translate}. The error case is
    a syntax error with its span. *)

type translation = {
  query : Cq.t;  (** atoms named after the tables, columns renamed to
                     join variables *)
  constraints : Constraints.t list;  (** WHERE comparisons vs literals *)
  renamings : (string * (Attr.t * Attr.t) list) list;
      (** per table, column → variable (identity pairs omitted) *)
}

val translate :
  catalog:(string * string list) list -> string -> translation
(** Raises {!Sql_error} on syntax errors, and with a [Semantic] error
    on unknown tables, aliases or columns, ambiguous bare column
    references, duplicate aliases, self-joins or two equated columns of
    one table. Join variables keep
    the column name when that is unambiguous; otherwise they are prefixed
    with the alias, and the database must be passed through {!bind}
    before querying. *)

val bind : translation -> Database.t -> Database.t
(** Renames the mentioned relations' columns to the translation's join
    variables, so the result matches [translation.query]. Relations not
    mentioned by the query are untouched. *)
