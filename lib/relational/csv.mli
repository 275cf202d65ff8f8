(** Plain CSV import/export for relations.

    Format: a header line with the attribute names followed by a final
    [cnt] column, then one line per distinct tuple. Values are rendered
    with {!Value.to_string} and parsed back with {!Value.of_string}.

    Export rejects with {!Errors.Data_error} anything that would not
    round-trip: fields containing commas or newlines, fields with
    leading/trailing whitespace, empty attribute names, and saturated
    counts (a saturated {!Count.t} is only a lower bound, not an exact
    multiplicity). Import strips exactly one trailing ['\r'] per line
    (Windows files); all other whitespace inside fields is preserved. *)

val output : out_channel -> Relation.t -> unit
val write_file : string -> Relation.t -> unit

val input : ?schema:Schema.t -> in_channel -> Relation.t
(** Reads a relation. When [schema] is given it must match the header's
    attribute names; otherwise the header defines the schema. Raises
    {!Errors.Data_error} on malformed input — an empty input, a header
    without a trailing [cnt] column or with a repeated attribute, a
    header mismatch, a row with the wrong number of fields, an invalid
    count or a count equal to {!Count.max_count} (a saturated count,
    which {!output} refuses to write) — and its message starts with
    ["line N: "], the 1-based line number (the header is line 1). *)

val read_file : ?schema:Schema.t -> string -> Relation.t
