(** Byte spans into a query's source text.

    Both surface parsers (datalog and SQL) attach a span to every token
    and propagate them to atoms, constraints and error messages, so that
    static diagnostics ({!module:Tsens_analysis} and the CLI's [check]
    subcommand) can point at the offending characters instead of merely
    naming a relation. Offsets are 0-based byte positions; [stop_ofs] is
    exclusive, so the spanned text is [String.sub src start_ofs (stop_ofs
    - start_ofs)]. *)

type t = { start_ofs : int; stop_ofs : int }

val make : int -> int -> t
(** [make start stop]. Raises [Invalid_argument] if [start < 0] or
    [stop < start]. *)

val point : int -> t
(** The empty span at one offset — end-of-input errors. *)

val join : t -> t -> t
(** Smallest span covering both arguments. *)

val join_all : t list -> t option
(** Smallest span covering every element; [None] on the empty list. *)

val whole : string -> t
(** The span of an entire source string. *)

val length : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int

val extract : string -> t -> string
(** The spanned substring, clamped to the source bounds. *)

val pp : Format.formatter -> t -> unit
(** Renders as [12-17] (byte offsets). *)

val pp_in : string -> Format.formatter -> t -> unit
(** Renders as [line:col] within the given source. *)
