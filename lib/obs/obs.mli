(** Operator-level observability: hierarchical timed spans, monotonic
    counters and maximum gauges behind one global toggle.

    The library is a passive sink: instrumented code calls {!span},
    {!add} or {!observe} unconditionally, and when the sink is disabled
    (the default) each call is a single load-and-branch on a [bool ref] —
    no allocation, no clock read, no hash lookup. Enabling the sink turns
    the same calls into aggregation against in-memory tables that a
    {!Report.capture} snapshots.

    The sink is process-global; enable it around one measured region at
    a time (the CLI's [--trace]/[--stats], the bench harness). Toggling
    it inside an open span leaves that span unrecorded but is otherwise
    harmless. *)

(** {1 The global toggle} *)

val enabled : unit -> bool
val set_enabled : bool -> unit
val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Zero every counter, gauge and span aggregate (interned handles stay
    valid) and drop any open span context. *)

(** {1 Timed spans}

    A span times one region of code. Nested spans aggregate under a
    [/]-separated path — [Obs.span "tsens.analyze" @@ fun () ->
    Obs.span "join.stream" ...] accumulates into
    ["tsens.analyze/join.stream"] — so the same operator shows up once
    per calling context, with call counts, total wall-clock seconds, and
    self time (total minus time spent in child spans). *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()], timing it when the sink is enabled. The
    timing is recorded even when [f] raises (the exception is
    re-raised). Disabled cost: one branch. *)

val now_seconds : unit -> float
(** Wall-clock seconds from an arbitrary epoch, for callers that keep
    their own duration fields (e.g. [Tsens.node_stat]); independent of
    the toggle. *)

(** {1 Counters and gauges}

    Handles are interned by name at first use — create them once at
    module initialisation ([let c_rows = Obs.counter "join.rows"]) so
    the per-event cost is a branch plus an integer add, never a hash
    lookup. *)

type counter
(** A named monotonic total (rows emitted, probes, saturation events). *)

val counter : string -> counter
(** Intern the counter named [name]; the same name yields the same
    handle for the life of the process. *)

val add : counter -> int -> unit
(** Add to the total. No-op while disabled. *)

val tick : counter -> unit
(** [tick c] is [add c 1]. *)

val count : string -> int -> unit
(** One-shot [add (counter name) n] for cold paths. *)

type gauge
(** A named high-water mark (largest hash group, widest intermediate). *)

val gauge : string -> gauge
val observe : gauge -> int -> unit
(** Raise the gauge to [v] if larger. No-op while disabled. *)

(** {1 Reports} *)

module Report : sig
  type span_stat = {
    path : string;  (** [/]-separated nesting path *)
    calls : int;
    seconds : float;  (** total wall-clock across calls *)
    self_seconds : float;  (** [seconds] minus time inside child spans *)
  }

  type total = { name : string; total : int }

  type t = {
    spans : span_stat list;  (** sorted by path *)
    counters : total list;  (** sorted by name; zero totals omitted *)
    gauges : total list;  (** sorted by name; untouched gauges omitted *)
  }

  val capture : unit -> t
  (** Snapshot the sink's current aggregates (does not reset). *)

  val to_json : t -> string
  (** One JSON object:
      [{"spans": [{"path", "calls", "seconds", "self_seconds"}, ...],
        "counters": [{"name", "total"}, ...],
        "gauges": [{"name", "total"}, ...]}]. *)

  val pp : Format.formatter -> t -> unit
  (** Aligned human-readable rendering of the same data. *)
end
