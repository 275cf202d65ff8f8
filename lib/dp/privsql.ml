open Tsens_relational
open Tsens_query
open Tsens_sensitivity

type config = {
  epsilon : float;
  threshold_fraction : float;
  ell : int;
  private_relation : string;
  cascade : (string * Attr.t) list;
}

let default_config ~ell ~private_relation ~cascade =
  { epsilon = 1.0; threshold_fraction = 0.5; ell; private_relation; cascade }

(* Same pre-flight as {!Mechanism.validate}, with the Privsql prefix.
   Private-relation membership stays a Schema_error (checked in [run]). *)
let validate config =
  let dp =
    {
      Tsens_analysis.Analyzer.epsilon = config.epsilon;
      threshold_fraction = config.threshold_fraction;
      ell = config.ell;
      private_relation = None;
    }
  in
  match Tsens_analysis.Analyzer.check_dp_config dp with
  | [] -> ()
  | d :: _ -> invalid_arg ("Privsql: " ^ d.Tsens_analysis.Diagnostic.message)

(* Privately learn a cap on the key-group frequency of one relation: the
   smallest i such that (noisily) no key has frequency above i. The count
   of over-full keys changes by at most 1 when one tuple changes. *)
let learn_frequency_cap rng ~epsilon ~ell rel key =
  let groups =
    Relation.project (Schema.of_list [ key ]) rel |> Relation.rows
  in
  let frequencies =
    Array.map snd groups |> Array.to_list |> List.sort Count.compare
    |> Array.of_list
  in
  let keys_above i =
    (* frequencies is ascending: count the suffix > i. *)
    let n = Array.length frequencies in
    let lo = ref 0 and hi = ref (n - 1) and first = ref n in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if frequencies.(mid) > i then begin
        first := mid;
        hi := mid - 1
      end
      else lo := mid + 1
    done;
    n - !first
  in
  match
    Svt.above_threshold rng ~epsilon ~sensitivity:1.0 ~threshold:(-0.5)
      ~queries:(fun j -> -.float_of_int (keys_above (j + 1)))
      ~count:ell
  with
  | Some j -> j + 1
  | None -> ell

let truncate_by_frequency rel key cap =
  let key_schema = Schema.of_list [ key ] in
  let groups = Index.build ~key:key_schema rel in
  let positions = Schema.positions ~sub:key_schema (Relation.schema rel) in
  Relation.filter
    (fun _schema tuple ->
      Index.group_count groups (Tuple.project positions tuple) <= cap)
    rel

let run rng config ?plans cq db =
  validate config;
  if not (Cq.mem_relation cq config.private_relation) then
    Errors.schema_errorf "Privsql: %s is not in query %s"
      config.private_relation (Cq.name cq);
  let db = Database.of_list (Cq.instance cq db) in
  let true_answer = Yannakakis.count ?plans cq db in
  let epsilon_threshold = config.epsilon *. config.threshold_fraction in
  let epsilon_answer = config.epsilon -. epsilon_threshold in
  (* Learn one frequency cap per cascaded relation and truncate. *)
  let caps, truncated_db =
    match config.cascade with
    | [] -> ([], db)
    | cascade ->
        let per_relation_budget =
          epsilon_threshold /. float_of_int (List.length cascade)
        in
        List.fold_left
          (fun (caps, db) (relation, key) ->
            if not (Schema.mem key (Cq.schema_of cq relation)) then
              Errors.schema_errorf "Privsql: %s has no attribute %a" relation
                Attr.pp key;
            let rel = Database.find relation db in
            let cap =
              learn_frequency_cap rng ~epsilon:per_relation_budget
                ~ell:config.ell rel key
            in
            let db =
              Database.add ~name:relation (truncate_by_frequency rel key cap)
                db
            in
            (cap :: caps, db))
          ([], db) cascade
  in
  (* Global sensitivity from frequency bounds: the elastic recurrence on
     the truncated instance, with the private relation sensitive. *)
  let plan = Elastic.plan_of_cq ?plans cq in
  let global_sensitivity =
    Elastic.relation_sensitivity cq truncated_db plan config.private_relation
  in
  let truncated_count = Yannakakis.count ?plans cq truncated_db in
  let truncated_answer = float_of_int truncated_count in
  let noisy_answer =
    Laplace.mechanism rng ~epsilon:epsilon_answer
      ~sensitivity:(float_of_int global_sensitivity) truncated_answer
  in
  {
    Report.noisy_answer;
    truncated_answer;
    true_answer = float_of_int true_answer;
    global_sensitivity = float_of_int global_sensitivity;
    threshold = List.fold_left max 0 caps;
    epsilon = config.epsilon;
    epsilon_threshold;
    (* The elastic bound saturates routinely on large instances; without
       the flag the report would print the raw max_int as its GS. *)
    saturated =
      Count.is_saturated global_sensitivity
      || Count.is_saturated true_answer
      || Count.is_saturated truncated_count;
  }
