(** Datalog-syntax parser for conjunctive queries with selections.

    Accepted grammar over {!Lexer}'s tokens (whitespace-insensitive;
    [%] and [--] start a line comment; identifiers may contain [']):

    {v
    query  ::= head ":-" item ("," item)* "."?
    head   ::= ident "(" vars ")" | ident "(" "*" ")" | ident
    item   ::= atom | constraint
    atom   ::= ident "(" vars ")"
    vars   ::= ident ("," ident)*
    constraint ::= ident op literal
    op     ::= "=" | "!=" | "<>" | "<" | "<=" | ">" | ">="
    literal ::= integer | 'string' | true | false
    v}

    The head is checked against the body atoms: a full CQ must list every
    body variable (in any order); ["*"] or a bare name accepts them all.
    Constraints are the paper's Section 5.4 selections — tuples failing
    them get sensitivity 0; feed them to the engines via
    {!Constraints.selection}.

    Two surfaces: {!parse_full} / {!parse} validate eagerly and raise;
    {!parse_raw} stops after the grammar and keeps source spans, so the
    static analyzer can turn the same defects (self-joins, head/body
    mismatches, unknown constraint variables) into positioned diagnostics
    instead of exceptions. *)

exception Parse_error of string
(** Carries a message with the offending position ([line:col]). *)

(** {1 Raw surface syntax (spans preserved, nothing validated)} *)

type raw_atom = {
  atom_name : string;
  atom_name_span : Srcspan.t;
  atom_vars : (string * Srcspan.t) list;
  atom_span : Srcspan.t;  (** name through closing parenthesis *)
}

type raw = {
  raw_name : string;
  raw_head : (string list * Srcspan.t) option;
      (** explicit head variable list; [None] for [( * )] or a bare head *)
  raw_atoms : raw_atom list;
  raw_constraints : (Constraints.t * Srcspan.t) list;
  raw_span : Srcspan.t;
}

val parse_raw : string -> (raw, string * Srcspan.t option) result
(** Grammar only: succeeds on any syntactically well-formed query, even
    one with self-joins, duplicate attributes or a mismatched head. The
    error case carries the message and the offending span. *)

val cq_of_raw : raw -> Cq.t
(** Builds the conjunctive query, raising
    {!Tsens_relational.Errors.Schema_error} exactly where {!Cq.make}
    does (self-joins, duplicate attributes, empty body). *)

(** {1 Validating surface} *)

val parse_full : string -> Cq.t * Constraints.t list
(** Raises {!Parse_error} on syntax errors,
    {!Tsens_relational.Errors.Schema_error} on semantic ones (self-joins,
    head/body variable mismatch, constraints on unknown variables). *)

val parse : string -> Cq.t
(** Like {!parse_full} but raises {!Errors.Schema_error} if the query has
    constraints — for callers that cannot apply a selection. *)

val parse_opt : string -> Cq.t option
