open Tsens_relational

(* Toggle. Reading TSENS_CACHE once at load mirrors how lib/exec reads
   TSENS_JOBS; the CLI flips the ref afterwards for --cache/--no-cache. *)

let env_default =
  match Sys.getenv_opt "TSENS_CACHE" with
  | None -> false
  | Some v -> (
      match String.lowercase_ascii (String.trim v) with
      | "" | "0" | "false" | "off" -> false
      | _ -> true)

let toggle = ref env_default
let enabled () = !toggle
let set_enabled b = toggle := b

module Key = struct
  (* \x1f (unit separator) never appears in relation names, printed
     queries, plans or decimal stamps, so joined parts cannot collide
     across component boundaries. *)
  let sep = "\x1f"
  let of_parts parts = String.concat sep parts

  let versions vs =
    String.concat ";"
      (List.map (fun (name, v) -> Printf.sprintf "%s=%d" name v) vs)

  let db d = versions (Database.versions d)
end

type stats = {
  store : string;
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  approx_bytes : int;
}

(* Registry of every store ever created, so `Cache.stats ()` and
   `Cache.reset ()` see stores they were not told about. Stores are
   created at module initialisation time, but a mutex keeps the list
   coherent if a test creates one mid-run. *)
let registry : (string * (unit -> stats) * (unit -> unit)) list ref = ref []
let registry_lock = Mutex.create ()

let register name stats_fn reset_fn =
  Mutex.lock registry_lock;
  registry := (name, stats_fn, reset_fn) :: !registry;
  Mutex.unlock registry_lock

module Store = struct
  type 'a t = {
    name : string;
    lru : 'a Lru.t;
    c_hits : Obs.counter;
    c_misses : Obs.counter;
    c_evictions : Obs.counter;
    g_bytes : Obs.gauge;
  }

  let stats t =
    let s = Lru.stats t.lru in
    {
      store = t.name;
      hits = s.Lru.hits;
      misses = s.Lru.misses;
      evictions = s.Lru.evictions;
      entries = s.Lru.entries;
      approx_bytes = s.Lru.approx_bytes;
    }

  let create ~name ~capacity ?weight () =
    let t =
      {
        name;
        lru = Lru.create ?weight ~capacity ();
        c_hits = Obs.counter (Printf.sprintf "cache.%s.hits" name);
        c_misses = Obs.counter (Printf.sprintf "cache.%s.misses" name);
        c_evictions = Obs.counter (Printf.sprintf "cache.%s.evictions" name);
        g_bytes = Obs.gauge (Printf.sprintf "cache.%s.bytes" name);
      }
    in
    register name
      (fun () -> stats t)
      (fun () ->
        Lru.clear t.lru;
        Lru.reset_stats t.lru);
    t

  let record_add t evicted =
    if evicted > 0 then Obs.add t.c_evictions evicted;
    Obs.observe t.g_bytes (Lru.stats t.lru).Lru.approx_bytes

  let find t key =
    if not (enabled ()) then None
    else
      match Lru.find t.lru key with
      | Some _ as hit ->
          Obs.tick t.c_hits;
          hit
      | None ->
          Obs.tick t.c_misses;
          None

  let add t key value =
    if enabled () then record_add t (Lru.add t.lru key value)

  let find_or_add t key compute =
    if not (enabled ()) then compute ()
    else
      match find t key with
      | Some v -> v
      | None ->
          let v = compute () in
          record_add t (Lru.add t.lru key v);
          v

  let remove t key = Lru.remove t.lru key
  let clear t = Lru.clear t.lru
end

let stats () =
  Mutex.lock registry_lock;
  let entries = !registry in
  Mutex.unlock registry_lock;
  List.map (fun (_, stats_fn, _) -> stats_fn ()) entries
  |> List.sort (fun a b -> String.compare a.store b.store)

let reset () =
  Mutex.lock registry_lock;
  let entries = !registry in
  Mutex.unlock registry_lock;
  List.iter (fun (_, _, reset_fn) -> reset_fn ()) entries

let pp_stats ppf stats_list =
  Format.fprintf ppf "@[<v>%-24s %8s %8s %9s %8s %12s@,"
    "store" "hits" "misses" "evictions" "entries" "approx_bytes";
  List.iter
    (fun s ->
      Format.fprintf ppf "%-24s %8d %8d %9d %8d %12d@," s.store s.hits
        s.misses s.evictions s.entries s.approx_bytes)
    stats_list;
  Format.fprintf ppf "@]"

(* Cached index construction. The weight is ~3 words per (tuple, count)
   row plus per-group overhead, in bytes — rough, but enough for
   eviction pressure to track reality. *)

let index_weight idx = Index.approx_words idx * 8

let index_store : Index.t Store.t =
  Store.create ~name:"relational.index" ~capacity:128 ~weight:index_weight ()

let index ~key rel =
  let k =
    Key.of_parts
      [ string_of_int (Relation.version rel); Schema.to_string key ]
  in
  Store.find_or_add index_store k (fun () -> Index.build ~key rel)
