(* Tests for the versioned memoization layer: LRU mechanics, store
   hit/miss behavior, version-keyed index invalidation, the elastic
   mutation-then-query regression, analysis reuse, and the headline
   property — cached results are bit-identical to uncached ones across
   random insert/delete sequences at jobs ∈ {1, 2, 4}. *)

open Tsens_relational
open Tsens_query
open Tsens_sensitivity
open Tsens_dp

let s = Value.str
let tup l = Tuple.of_list l
let schema l = Schema.of_list l

(* Run one thunk with the cache toggle forced, restoring the previous
   setting and clearing every store afterwards so tests stay
   order-independent (and independent of the TSENS_CACHE env var). *)
let with_cache on f =
  let before = Cache.enabled () in
  Cache.set_enabled on;
  Cache.reset ();
  Fun.protect
    ~finally:(fun () ->
      Cache.reset ();
      Cache.set_enabled before)
    f

(* Compute a reference value with the cache bypassed, without touching
   the stores — for use inside a [with_cache true] block where warm
   entries must survive for later assertions. *)
let uncached f =
  let before = Cache.enabled () in
  Cache.set_enabled false;
  Fun.protect ~finally:(fun () -> Cache.set_enabled before) f

let store_stats name =
  match List.find_opt (fun s -> String.equal s.Cache.store name) (Cache.stats ()) with
  | Some s -> s
  | None -> Alcotest.failf "no cache store named %s" name

(* ------------------------------------------------------------------ *)
(* LRU *)

let test_lru_basics () =
  let l = Lru.create ~capacity:2 () in
  Alcotest.(check int) "capacity" 2 (Lru.capacity l);
  Alcotest.(check (option int)) "miss on empty" None (Lru.find l "a");
  let evicted = Lru.add l "a" 1 in
  Alcotest.(check int) "no eviction below capacity" 0 evicted;
  Alcotest.(check (option int)) "hit" (Some 1) (Lru.find l "a");
  let st = Lru.stats l in
  Alcotest.(check int) "one hit" 1 st.Lru.hits;
  Alcotest.(check int) "one miss" 1 st.Lru.misses;
  Alcotest.(check int) "one entry" 1 st.Lru.entries

let test_lru_eviction_order () =
  let l = Lru.create ~capacity:2 () in
  ignore (Lru.add l "a" 1);
  ignore (Lru.add l "b" 2);
  (* Promote "a": "b" becomes the LRU entry and is evicted by "c". *)
  ignore (Lru.find l "a");
  let evicted = Lru.add l "c" 3 in
  Alcotest.(check int) "one eviction" 1 evicted;
  Alcotest.(check (option int)) "b evicted" None (Lru.find l "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Lru.find l "a");
  Alcotest.(check (option int)) "c present" (Some 3) (Lru.find l "c");
  Alcotest.(check int) "eviction counted" 1 (Lru.stats l).Lru.evictions

let test_lru_replace_and_remove () =
  let l = Lru.create ~weight:(fun v -> v) ~capacity:3 () in
  ignore (Lru.add l "a" 10);
  ignore (Lru.add l "a" 20);
  Alcotest.(check (option int)) "replaced" (Some 20) (Lru.find l "a");
  Alcotest.(check int) "replace keeps one entry" 1 (Lru.stats l).Lru.entries;
  Alcotest.(check int) "bytes follow replacement" 20
    (Lru.stats l).Lru.approx_bytes;
  Lru.remove l "a";
  Alcotest.(check (option int)) "removed" None (Lru.find l "a");
  Alcotest.(check int) "bytes released" 0 (Lru.stats l).Lru.approx_bytes;
  Lru.remove l "ghost" (* absent keys are ignored *)

let test_lru_clear () =
  let l = Lru.create ~capacity:4 () in
  ignore (Lru.add l "a" 1);
  ignore (Lru.add l "b" 2);
  ignore (Lru.find l "a");
  Lru.clear l;
  let st = Lru.stats l in
  Alcotest.(check int) "no entries" 0 st.Lru.entries;
  Alcotest.(check int) "clear is not an eviction" 0 st.Lru.evictions;
  Alcotest.(check int) "hit totals preserved" 1 st.Lru.hits;
  Lru.reset_stats l;
  Alcotest.(check int) "reset zeroes hits" 0 (Lru.stats l).Lru.hits

let test_lru_capacity_one () =
  let l = Lru.create ~capacity:1 () in
  for i = 0 to 9 do
    ignore (Lru.add l (string_of_int i) i)
  done;
  Alcotest.(check int) "single survivor" 1 (Lru.stats l).Lru.entries;
  Alcotest.(check (option int)) "latest wins" (Some 9) (Lru.find l "9");
  Alcotest.(check int) "nine evictions" 9 (Lru.stats l).Lru.evictions;
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Lru.create: capacity < 1") (fun () ->
      ignore (Lru.create ~capacity:0 ()))

(* ------------------------------------------------------------------ *)
(* Store *)

let test_store_hit_miss () =
  with_cache true @@ fun () ->
  let store = Cache.Store.create ~name:"test.store" ~capacity:4 () in
  let calls = ref 0 in
  let compute () = incr calls; [| 1; 2; 3 |] in
  let a = Cache.Store.find_or_add store "k" compute in
  let b = Cache.Store.find_or_add store "k" compute in
  Alcotest.(check int) "computed once" 1 !calls;
  Alcotest.(check bool) "hit returns the same value" true (a == b);
  let st = Cache.Store.stats store in
  Alcotest.(check int) "one hit" 1 st.Cache.hits;
  Alcotest.(check int) "one miss" 1 st.Cache.misses

let test_store_disabled_bypass () =
  with_cache false @@ fun () ->
  let store = Cache.Store.create ~name:"test.bypass" ~capacity:4 () in
  let calls = ref 0 in
  let compute () = incr calls; !calls in
  Alcotest.(check int) "first call computes" 1
    (Cache.Store.find_or_add store "k" compute);
  Alcotest.(check int) "second call computes again" 2
    (Cache.Store.find_or_add store "k" compute);
  let st = Cache.Store.stats store in
  Alcotest.(check int) "no hits recorded" 0 st.Cache.hits;
  Alcotest.(check int) "no misses recorded" 0 st.Cache.misses;
  Alcotest.(check int) "nothing stored" 0 st.Cache.entries

let test_store_registry_reset () =
  with_cache true @@ fun () ->
  let store = Cache.Store.create ~name:"test.reset" ~capacity:4 () in
  ignore (Cache.Store.find_or_add store "k" (fun () -> 1));
  Alcotest.(check int) "visible in global stats" 1
    (store_stats "test.reset").Cache.misses;
  Cache.reset ();
  let st = Cache.Store.stats store in
  Alcotest.(check int) "reset clears entries" 0 st.Cache.entries;
  Alcotest.(check int) "reset zeroes misses" 0 st.Cache.misses

let test_key_parts_cannot_collide () =
  Alcotest.(check bool) "separator keeps parts apart" false
    (String.equal (Cache.Key.of_parts [ "ab"; "c" ]) (Cache.Key.of_parts [ "a"; "bc" ]));
  Alcotest.(check string) "versions render" "R1=3;R2=7"
    (Cache.Key.versions [ ("R1", 3); ("R2", 7) ])

(* ------------------------------------------------------------------ *)
(* Version stamps *)

let r1 () =
  Relation.create ~schema:(schema [ "A"; "B" ])
    [ (tup [ s "a"; s "b" ], 1); (tup [ s "a"; s "c" ], 2) ]

let test_version_stamps () =
  let r = r1 () in
  let r' = r1 () in
  Alcotest.(check bool) "equal bags, distinct stamps" false
    (Relation.version r = Relation.version r');
  Alcotest.(check bool) "monotone" true
    (Relation.version r' > Relation.version r);
  let mutated = Relation.add (tup [ s "x"; s "y" ]) r in
  Alcotest.(check bool) "mutation bumps" true
    (Relation.version mutated > Relation.version r);
  (* reorder to the stored schema is the identity — same stamp. *)
  let same = Relation.reorder (schema [ "A"; "B" ]) r in
  Alcotest.(check int) "identity reorder keeps the stamp"
    (Relation.version r) (Relation.version same);
  let permuted = Relation.reorder (schema [ "B"; "A" ]) r in
  Alcotest.(check bool) "real reorder restamps" true
    (Relation.version permuted <> Relation.version r);
  (* project onto the stored schema is the identity too; a permutation
     or a real group-by builds a new value. *)
  let projected = Relation.project (schema [ "A"; "B" ]) r in
  Alcotest.(check bool) "identity project returns the relation" true
    (projected == r);
  Alcotest.(check int) "identity project keeps the stamp"
    (Relation.version r) (Relation.version projected);
  let swapped = Relation.project (schema [ "B"; "A" ]) r in
  Alcotest.(check bool) "permuting project restamps" true
    (Relation.version swapped > Relation.version r);
  Alcotest.(check bool) "permuting project = reorder" true
    (Relation.equal swapped permuted);
  let grouped = Relation.project (schema [ "A" ]) r in
  Alcotest.(check bool) "grouping project restamps" true
    (Relation.version grouped > Relation.version r)

let test_database_versions () =
  let a = r1 () and b = r1 () in
  let db = Database.of_list [ ("R1", a); ("R2", b) ] in
  Alcotest.(check (list (pair string int)))
    "name-sorted version list"
    [ ("R1", Relation.version a); ("R2", Relation.version b) ]
    (Database.versions db);
  let db' = Database.update ~name:"R1" (Relation.add (tup [ s "q"; s "r" ])) db in
  Alcotest.(check bool) "update changes the list" false
    (Database.versions db = Database.versions db')

(* ------------------------------------------------------------------ *)
(* Cached indexes: sharing and version-keyed invalidation *)

let test_cached_index_shared_and_invalidated () =
  with_cache true @@ fun () ->
  let rel = r1 () in
  let key = schema [ "A" ] in
  let i1 = Cache.index ~key rel in
  let i2 = Cache.index ~key rel in
  (* The hit returns the very same frozen index: lookup arrays are
     aliased across all callers, which is why Index.lookup's
     no-mutation contract is load-bearing. *)
  Alcotest.(check bool) "same physical index" true (i1 == i2);
  Alcotest.(check bool) "lookup arrays aliased" true
    (Index.lookup i1 (tup [ s "a" ]) == Index.lookup i2 (tup [ s "a" ]));
  Alcotest.(check int) "group content" 3
    (Index.group_count i1 (tup [ s "a" ]));
  (* Mutating yields a new version: the cached index is not served for
     the new relation, and the fresh one sees the new rows. *)
  let rel' = Relation.add ~count:5 (tup [ s "a"; s "z" ]) rel in
  let i3 = Cache.index ~key rel' in
  Alcotest.(check bool) "version bump invalidates" true (not (i3 == i1));
  Alcotest.(check int) "fresh groups" 8 (Index.group_count i3 (tup [ s "a" ]));
  (* The old relation's entry is untouched. *)
  Alcotest.(check int) "old index unchanged" 3
    (Index.group_count (Cache.index ~key rel) (tup [ s "a" ]));
  (* Distinct key schemas do not collide on one relation. *)
  let ib = Cache.index ~key:(schema [ "B" ]) rel in
  Alcotest.(check bool) "different key schema, different index" true
    (not (ib == i1));
  Alcotest.(check int) "B-group" 1 (Index.group_count ib (tup [ s "b" ]))

let test_cached_index_matches_fresh_build () =
  (* Same groups as an uncached build, for every key of a random-ish
     relation — the cached index must be indistinguishable from a fresh
     one. *)
  with_cache true @@ fun () ->
  let rng = Prng.create 7 in
  let rows =
    List.init 40 (fun _ ->
        (tup [ Value.int (Prng.int rng 5); Value.int (Prng.int rng 5) ],
         1 + Prng.int rng 3))
  in
  let rel = Relation.create ~schema:(schema [ "A"; "B" ]) rows in
  let key = schema [ "B" ] in
  let cached = Cache.index ~key rel in
  let fresh = Index.build ~key rel in
  List.iter
    (fun v ->
      let k = tup [ v ] in
      Alcotest.(check int)
        (Format.asprintf "group %a" Tuple.pp k)
        (Index.group_count fresh k)
        (Index.group_count cached k))
    (Relation.active_domain "B" rel)

(* ------------------------------------------------------------------ *)
(* Fixtures shared with test_dp: the Figure 3 path-4 instance. *)

let fig3_cq =
  Cq.make ~name:"path4"
    [
      ("R1", [ "A"; "B" ]);
      ("R2", [ "B"; "C" ]);
      ("R3", [ "C"; "D" ]);
      ("R4", [ "D"; "E" ]);
    ]

let fig3_db =
  Database.of_list
    [
      ( "R1",
        Relation.create ~schema:(schema [ "A"; "B" ])
          [
            (tup [ s "a1"; s "b1" ], 1);
            (tup [ s "a1"; s "b2" ], 1);
            (tup [ s "a2"; s "b2" ], 2);
          ] );
      ( "R2",
        Relation.create ~schema:(schema [ "B"; "C" ])
          [
            (tup [ s "b1"; s "c1" ], 1);
            (tup [ s "b1"; s "c2" ], 1);
            (tup [ s "b2"; s "c1" ], 2);
          ] );
      ( "R3",
        Relation.create ~schema:(schema [ "C"; "D" ])
          [
            (tup [ s "c1"; s "d1" ], 2);
            (tup [ s "c2"; s "d1" ], 1);
            (tup [ s "c2"; s "d2" ], 1);
          ] );
      ( "R4",
        Relation.create ~schema:(schema [ "D"; "E" ])
          [
            (tup [ s "d1"; s "e1" ], 1);
            (tup [ s "d1"; s "e2" ], 1);
            (tup [ s "d1"; s "e3" ], 1);
            (tup [ s "d2"; s "e4" ], 1);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Analysis reuse *)

let test_analysis_reuse_and_invalidation () =
  with_cache true @@ fun () ->
  let a1 = Tsens.analyze fig3_cq fig3_db in
  let a2 = Tsens.analyze fig3_cq fig3_db in
  Alcotest.(check int) "warm analyze returns the same DP run"
    (Tsens.analysis_id a1) (Tsens.analysis_id a2);
  Alcotest.(check int) "analysis store hit" 1
    (store_stats "tsens.analysis").Cache.hits;
  (* The profile keyed by the shared id is also reused. *)
  let p1 = Truncation.profile a1 "R2" in
  let p2 = Truncation.profile a2 "R2" in
  Alcotest.(check bool) "profile reused" true (p1 == p2);
  (* Mutation invalidates: new versions, fresh run, correct answer. *)
  let db' =
    Database.update ~name:"R2"
      (Relation.remove (tup [ s "b2"; s "c1" ]))
      fig3_db
  in
  let a3 = Tsens.analyze fig3_cq db' in
  Alcotest.(check bool) "new versions, new run" true
    (Tsens.analysis_id a3 <> Tsens.analysis_id a1);
  let fresh =
    uncached (fun () -> Tsens.local_sensitivity fig3_cq db')
  in
  Alcotest.(check int) "post-mutation LS matches uncached"
    fresh.Sens_types.local_sensitivity
    (Tsens.result a3).Sens_types.local_sensitivity

(* ------------------------------------------------------------------ *)
(* Elastic mutation-then-query regression *)

let test_elastic_mutation_then_query () =
  (* A warm mf store must never answer for a mutated database: the new
     relation's stamp keys a fresh computation. Before version keying, a
     (cq, db)-closure memo reused across calls would serve the stale
     bound. *)
  with_cache true @@ fun () ->
  let warm = Elastic.local_sensitivity fig3_cq fig3_db in
  let db' =
    Database.update ~name:"R2"
      (Relation.add ~count:10 (tup [ s "b2"; s "c1" ]))
      fig3_db
  in
  let cached = Elastic.local_sensitivity fig3_cq db' in
  let fresh = uncached (fun () -> Elastic.local_sensitivity fig3_cq db') in
  Alcotest.(check int) "mutated db gets fresh bounds"
    fresh.Sens_types.local_sensitivity cached.Sens_types.local_sensitivity;
  Alcotest.(check bool) "and the bound actually moved" true
    (cached.Sens_types.local_sensitivity > warm.Sens_types.local_sensitivity);
  (* Unchanged database: the second call is served from the store. *)
  let before = (store_stats "elastic.mf").Cache.hits in
  let again = Elastic.local_sensitivity fig3_cq db' in
  Alcotest.(check int) "same result" cached.Sens_types.local_sensitivity
    again.Sens_types.local_sensitivity;
  Alcotest.(check bool) "warm mf hits" true
    ((store_stats "elastic.mf").Cache.hits > before)

(* ------------------------------------------------------------------ *)
(* Yannakakis count store *)

let test_count_store () =
  with_cache true @@ fun () ->
  let c1 = Yannakakis.count fig3_cq fig3_db in
  let c2 = Yannakakis.count fig3_cq fig3_db in
  Alcotest.(check int) "same count" c1 c2;
  Alcotest.(check int) "second call hits" 1
    (store_stats "yannakakis.count").Cache.hits;
  let db' =
    Database.update ~name:"R4" (Relation.remove (tup [ s "d1"; s "e1" ])) fig3_db
  in
  let fresh = uncached (fun () -> Yannakakis.count fig3_cq db') in
  Alcotest.(check int) "mutated db recounted" fresh
    (Yannakakis.count fig3_cq db')

(* ------------------------------------------------------------------ *)
(* The headline property: cached == uncached under random mutation
   sequences, at jobs ∈ {1, 2, 4}. *)

let result_equal (a : Sens_types.result) (b : Sens_types.result) =
  Count.equal a.local_sensitivity b.local_sensitivity
  && List.equal
       (fun (r1, c1) (r2, c2) -> String.equal r1 r2 && Count.equal c1 c2)
       a.per_relation b.per_relation
  && Option.equal
       (fun (w1 : Sens_types.witness) w2 ->
         String.equal w1.relation w2.relation
         && Schema.equal w1.schema w2.schema
         && Tuple.equal w1.tuple w2.tuple
         && Count.equal w1.sensitivity w2.sensitivity)
       a.witness b.witness

let path3_cq =
  Cq.make ~name:"p3"
    [ ("R1", [ "A"; "B" ]); ("R2", [ "B"; "C" ]); ("R3", [ "C"; "D" ]) ]

let random_tuple rng = tup [ Value.int (Prng.int rng 4); Value.int (Prng.int rng 4) ]

let random_db rng =
  let rel () =
    let rows =
      List.init (Prng.int rng 8) (fun _ -> (random_tuple rng, 1 + Prng.int rng 2))
    in
    (* Distinct schemas per atom don't matter for the DP: the instance
       reorders to atom order. Use atom order directly. *)
    rows
  in
  Database.of_list
    [
      ("R1", Relation.create ~schema:(schema [ "A"; "B" ]) (rel ()));
      ("R2", Relation.create ~schema:(schema [ "B"; "C" ]) (rel ()));
      ("R3", Relation.create ~schema:(schema [ "C"; "D" ]) (rel ()));
    ]

let mutate rng db =
  let name = Prng.choose rng [| "R1"; "R2"; "R3" |] in
  let t = random_tuple rng in
  Database.update ~name
    (fun rel ->
      if Prng.bool rng then Relation.add ~count:(1 + Prng.int rng 2) t rel
      else Relation.remove t rel)
    db

(* Everything we assert bit-identity over, computed fresh. *)
let observe cq db =
  let analysis = Tsens.analyze cq db in
  let profile = Truncation.profile analysis "R2" in
  ( Tsens.result analysis,
    Tsens.output_size analysis,
    List.map (Truncation.truncated_answer profile) [ 0; 1; 2; 5; 100 ],
    Elastic.local_sensitivity cq db,
    Yannakakis.count cq db )

let observation_equal (r1, o1, t1, e1, c1) (r2, o2, t2, e2, c2) =
  result_equal r1 r2 && Count.equal o1 o2
  && List.equal Count.equal t1 t2
  && result_equal e1 e2 && Count.equal c1 c2

let test_cached_equals_uncached_random_sequences () =
  let rng = Prng.create 1234 in
  for round = 1 to 8 do
    let db = ref (random_db rng) in
    for step = 1 to 6 do
      db := mutate rng !db;
      let reference =
        uncached (fun () -> Exec.with_jobs 1 (fun () -> observe path3_cq !db))
      in
      List.iter
        (fun jobs ->
          let uncached =
            uncached (fun () ->
                Exec.with_jobs jobs (fun () -> observe path3_cq !db))
          in
          (* Cached twice: the first call fills every store (cold), the
             second must be served warm — both bit-identical to the
             uncached reference. *)
          let cold, warm =
            with_cache true (fun () ->
                Exec.with_jobs jobs (fun () ->
                    let cold = observe path3_cq !db in
                    (cold, observe path3_cq !db)))
          in
          let ctx what =
            Printf.sprintf "round %d step %d jobs %d: %s" round step jobs what
          in
          Alcotest.(check bool) (ctx "uncached matches jobs=1") true
            (observation_equal reference uncached);
          Alcotest.(check bool) (ctx "cold cache matches") true
            (observation_equal reference cold);
          Alcotest.(check bool) (ctx "warm cache matches") true
            (observation_equal reference warm))
        [ 1; 2; 4 ]
    done
  done

(* The warm path must actually hit: analyze twice, then check counters. *)
let test_warm_hit_counters () =
  with_cache true @@ fun () ->
  let _ = observe fig3_cq fig3_db in
  let misses = (store_stats "tsens.analysis").Cache.misses in
  let _ = observe fig3_cq fig3_db in
  let st = store_stats "tsens.analysis" in
  Alcotest.(check int) "no new misses" misses st.Cache.misses;
  Alcotest.(check bool) "warm analysis hits" true (st.Cache.hits >= 1);
  Alcotest.(check bool) "warm profile hits" true
    ((store_stats "truncation.profile").Cache.hits >= 1)

let () =
  Alcotest.run "cache"
    [
      ( "lru",
        [
          Alcotest.test_case "basics" `Quick test_lru_basics;
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "replace and remove" `Quick
            test_lru_replace_and_remove;
          Alcotest.test_case "clear" `Quick test_lru_clear;
          Alcotest.test_case "capacity one" `Quick test_lru_capacity_one;
        ] );
      ( "store",
        [
          Alcotest.test_case "hit/miss" `Quick test_store_hit_miss;
          Alcotest.test_case "disabled bypass" `Quick test_store_disabled_bypass;
          Alcotest.test_case "registry reset" `Quick test_store_registry_reset;
          Alcotest.test_case "key separation" `Quick test_key_parts_cannot_collide;
        ] );
      ( "versions",
        [
          Alcotest.test_case "relation stamps" `Quick test_version_stamps;
          Alcotest.test_case "database versions" `Quick test_database_versions;
        ] );
      ( "index",
        [
          Alcotest.test_case "shared and invalidated" `Quick
            test_cached_index_shared_and_invalidated;
          Alcotest.test_case "matches fresh build" `Quick
            test_cached_index_matches_fresh_build;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "reuse and invalidation" `Quick
            test_analysis_reuse_and_invalidation;
          Alcotest.test_case "warm hit counters" `Quick test_warm_hit_counters;
        ] );
      ( "elastic",
        [
          Alcotest.test_case "mutation then query" `Quick
            test_elastic_mutation_then_query;
        ] );
      ( "yannakakis",
        [ Alcotest.test_case "count store" `Quick test_count_store ] );
      ( "identity",
        [
          Alcotest.test_case "cached == uncached over mutations, jobs 1/2/4"
            `Quick test_cached_equals_uncached_random_sequences;
        ] );
    ]
