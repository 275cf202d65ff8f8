(* Hash table + doubly-linked recency list; the list's front is the
   most-recently-used entry, its back the eviction candidate. All
   operations hold [lock], so the structure is safe to share across the
   domains of an exec region. *)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable weight : int;
  mutable prev : 'a node option; (* towards the front (MRU) *)
  mutable next : 'a node option; (* towards the back (LRU) *)
}

type 'a t = {
  capacity : int;
  weigh : 'a -> int;
  table : (string, 'a node) Hashtbl.t;
  lock : Mutex.t;
  mutable front : 'a node option;
  mutable back : 'a node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable bytes : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  approx_bytes : int;
}

let create ?(weight = fun _ -> 0) ~capacity () =
  if capacity < 1 then invalid_arg "Lru.create: capacity < 1";
  {
    capacity;
    weigh = weight;
    table = Hashtbl.create (min capacity 64);
    lock = Mutex.create ();
    front = None;
    back = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    bytes = 0;
  }

let capacity t = t.capacity

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let unlink t node =
  (match node.prev with None -> t.front <- node.next | Some p -> p.next <- node.next);
  (match node.next with None -> t.back <- node.prev | Some n -> n.prev <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.front;
  node.prev <- None;
  (match t.front with None -> t.back <- Some node | Some f -> f.prev <- Some node);
  t.front <- Some node

let find t key =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.table key with
  | None ->
      t.misses <- t.misses + 1;
      None
  | Some node ->
      t.hits <- t.hits + 1;
      unlink t node;
      push_front t node;
      Some node.value

let mem t key = locked t @@ fun () -> Hashtbl.mem t.table key

let evict_back t =
  match t.back with
  | None -> ()
  | Some node ->
      unlink t node;
      Hashtbl.remove t.table node.key;
      t.bytes <- t.bytes - node.weight;
      t.evictions <- t.evictions + 1

let add t key value =
  locked t @@ fun () ->
  let weight = t.weigh value in
  (match Hashtbl.find_opt t.table key with
  | Some node ->
      t.bytes <- t.bytes - node.weight + weight;
      node.value <- value;
      node.weight <- weight;
      unlink t node;
      push_front t node
  | None ->
      let node = { key; value; weight; prev = None; next = None } in
      Hashtbl.replace t.table key node;
      t.bytes <- t.bytes + weight;
      push_front t node);
  let before = t.evictions in
  while Hashtbl.length t.table > t.capacity do
    evict_back t
  done;
  t.evictions - before

let remove t key =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.table key with
  | None -> ()
  | Some node ->
      unlink t node;
      Hashtbl.remove t.table key;
      t.bytes <- t.bytes - node.weight

let clear t =
  locked t @@ fun () ->
  Hashtbl.reset t.table;
  t.front <- None;
  t.back <- None;
  t.bytes <- 0

let stats t =
  locked t @@ fun () ->
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    entries = Hashtbl.length t.table;
    approx_bytes = t.bytes;
  }

let reset_stats t =
  locked t @@ fun () ->
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0
