(** Multicore execution: spawn-per-region fork-join over OCaml domains.

    The library runs sequentially unless a caller opts in with
    {!set_jobs}, [--jobs] or [TSENS_JOBS]. Above one job a parallel
    region spawns [jobs () - 1] domains, lets them and the calling
    domain claim the region's items one at a time, and joins the
    domains before it returns: no worker domain outlives the region it
    was spawned for, so sequential work never shares the heap with idle
    domains. Callers never observe scheduling: results land in item
    order, so every primitive returns exactly what its sequential
    counterpart would.

    Only coarse per-item fan-outs use these primitives (TSens's
    per-relation multiplicity tables, the naive oracle's probes): each
    item is a whole sub-computation, large enough to pay for a domain
    spawn.

    Concurrency contract:
    - With [jobs () = 1] (the default) every primitive runs
      sequentially in the calling domain; no domain is spawned.
    - A parallel call made from inside a region item (any nesting) runs
      sequentially in its own domain.
    - If an item raises, the remaining items still run; the exception of
      the first failing item in item order is re-raised, with its
      backtrace, once the region has joined. *)

(** {1 Sizing} *)

val default_jobs : unit -> int
(** The job count used unless {!set_jobs} overrides it: the
    [TSENS_JOBS] environment variable if set to a positive integer
    (clamped to [\[1, 64\]]), otherwise 1. *)

val jobs : unit -> int
(** The current job count (calling domain included). *)

val set_jobs : int -> unit
(** Override the job count, clamped to [\[1, 64\]]. *)

val with_jobs : int -> (unit -> 'a) -> 'a
(** [with_jobs j f] runs [f] with the job count set to [j], restoring
    the previous setting afterwards (also on exceptions). Intended for
    tests and benchmarks that sweep job counts. *)

(** {1 Fork-join primitives} *)

val parallel_map : ('a -> 'b) -> 'a array -> 'b array
(** [Array.map f arr], with the items computed by up to [jobs ()]
    domains. *)

val parallel_map_list : ('a -> 'b) -> 'a list -> 'b list
(** [List.map f l], computed as {!parallel_map}. *)
