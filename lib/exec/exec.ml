(* Spawn-per-region fork-join.

   A region owns everything it uses: an atomic cursor over its items,
   one result slot and one failure slot per item, and the domains it
   spawned. The calling domain claims items alongside the workers, and
   the region joins every worker before it returns, so no domain (and no
   minor heap taking part in stop-the-world collections) survives the
   work it was spawned for.

   Determinism: item [i]'s result goes to slot [i] whichever domain ran
   it, and the failure re-raised is the first in item order. Nested
   calls (an item calling back into a primitive) run sequentially in
   their own domain via a domain-local flag, so a region never spawns
   domains from inside another. *)

(* ------------------------------------------------------------------ *)
(* Sizing *)

let clamp_jobs n = if n < 1 then 1 else if n > 64 then 64 else n

let default_jobs () =
  match Sys.getenv_opt "TSENS_JOBS" with
  | None -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> clamp_jobs n
      | Some _ | None -> 1)

let requested : int option ref = ref None
let jobs () = match !requested with Some n -> n | None -> default_jobs ()
let set_jobs n = requested := Some (clamp_jobs n)

let with_jobs j f =
  let saved = !requested in
  set_jobs j;
  Fun.protect ~finally:(fun () -> requested := saved) f

(* ------------------------------------------------------------------ *)
(* Regions *)

(* True while this domain is running region items: primitives called
   under it run sequentially (the nested-call guard). *)
let in_region : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let parallel_map f arr =
  let n = Array.length arr in
  let j = min (jobs ()) n in
  if j <= 1 || Domain.DLS.get in_region then Array.map f arr
  else begin
    let results = Array.make n None and failures = Array.make n None in
    let next = Atomic.make 0 in
    let rec claim () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (match f arr.(i) with
        | y -> results.(i) <- Some y
        | exception e -> failures.(i) <- Some (e, Printexc.get_raw_backtrace ()));
        claim ()
      end
    in
    let work () =
      Domain.DLS.set in_region true;
      claim ()
    in
    (* A domain that cannot be spawned only leaves more items to the
       others: the calling domain alone still claims all of them. *)
    let workers = ref [] in
    (try
       for _ = 2 to j do
         workers := Domain.spawn work :: !workers
       done
     with Failure _ -> ());
    work ();
    Domain.DLS.set in_region false;
    List.iter Domain.join !workers;
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ())
      failures;
    Array.map Option.get results
  end

let parallel_map_list f l = Array.to_list (parallel_map f (Array.of_list l))
