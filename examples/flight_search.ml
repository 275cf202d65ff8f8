(* The paper's introduction scenario: an airline wants to know which new
   flight would create the most new connecting itineraries.

   Itineraries for a 3-city trip Home → Hub → Regional → Destination are
   the path join Leg1(home, hub) ⋈ Leg2(hub, regional) ⋈ Leg3(regional,
   dest); the count is the number of bookable combinations. The *upward*
   tuple sensitivity of a hypothetical flight is exactly how many new
   itineraries it would unlock, and the most sensitive tuple is the best
   flight to add — computed here with TSens, whose join tree on a path
   query is a chain: the paper's Algorithm 1.

   Run with: dune exec examples/flight_search.exe *)

open Tsens_relational
open Tsens_query
open Tsens_sensitivity

let city = Value.str

(* A small seasonal schedule; multiplicities model daily frequencies. *)
let legs name src dst flights =
  ( name,
    Relation.create
      ~schema:(Schema.of_list [ src; dst ])
      (List.map
         (fun (a, b, per_day) -> (Tuple.of_list [ city a; city b ], per_day))
         flights) )

let database =
  Database.of_list
    [
      legs "Leg1" "home" "hub"
        [
          ("lisbon", "paris", 3);
          ("lisbon", "frankfurt", 2);
          ("porto", "paris", 1);
          ("madrid", "frankfurt", 4);
        ];
      legs "Leg2" "hub" "regional"
        [
          ("paris", "vienna", 2);
          ("paris", "prague", 1);
          ("frankfurt", "vienna", 3);
          ("frankfurt", "warsaw", 2);
        ];
      legs "Leg3" "regional" "dest"
        [
          ("vienna", "athens", 1);
          ("vienna", "bucharest", 2);
          ("prague", "athens", 1);
          ("warsaw", "riga", 1);
        ];
    ]

let query =
  Parser.parse "Trips(*) :- Leg1(home,hub), Leg2(hub,regional), Leg3(regional,dest)."

let () =
  Format.printf "schedule:@.%a@." Database.pp database;
  let itineraries = Yannakakis.count query database in
  Format.printf "bookable 3-leg itineraries today: %a@.@." Count.pp itineraries;

  (* One DP run answers the witness, the per-leg view and the what-ifs. *)
  let analysis = Tsens.analyze query database in
  let result = Tsens.result analysis in
  (match result.Sens_types.witness with
  | Some w ->
      Format.printf
        "most impactful single flight change: %s%a — adding (or cancelling) \
         one such flight changes the itinerary count by %a@."
        w.Sens_types.relation Tuple.pp w.Sens_types.tuple Count.pp
        w.Sens_types.sensitivity
  | None -> Format.printf "no flight can change anything@.");

  (* Per-leg view: where is the schedule most fragile? *)
  Format.printf "@.largest impact per leg:@.";
  List.iter
    (fun (leg, c) -> Format.printf "  %s: %a@." leg Count.pp c)
    result.Sens_types.per_relation;

  (* What-if: which hypothetical Paris departure would matter most? The
     multiplicity table answers point queries over the whole domain. *)
  Format.printf "@.what-if sensitivities for new Paris departures:@.";
  List.iter
    (fun dst ->
      let t = Tuple.of_list [ city "paris"; city dst ] in
      Format.printf "  paris -> %s: %a@." dst Count.pp
        (Tsens.tuple_sensitivity analysis "Leg2" t))
    [ "vienna"; "prague"; "warsaw" ]
