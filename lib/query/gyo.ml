open Tsens_relational

type step = { ear : string; witness : string option }

type result = Acyclic of step list | Cyclic of string list

(* Attributes of [atom] also present in some *other* live atom. *)
let shared_attrs live atom =
  Schema.restrict
    ~keep:(fun a ->
      List.exists
        (fun (other, schema) ->
          (not (String.equal other (fst atom))) && Schema.mem a schema)
        live)
    (snd atom)

let find_witness live atom shared =
  if Schema.arity shared = 0 then Some None
  else
    let candidate =
      List.find_opt
        (fun (other, schema) ->
          (not (String.equal other (fst atom))) && Schema.subset shared schema)
        live
    in
    match candidate with
    | Some (witness, _) -> Some (Some witness)
    | None -> None

let decompose cq =
  let live =
    ref (List.map (fun a -> (a.Cq.relation, a.Cq.schema)) (Cq.atoms cq))
  in
  let steps = ref [] in
  let progress = ref true in
  while !progress && !live <> [] do
    progress := false;
    let rec try_atoms = function
      | [] -> ()
      | atom :: rest -> (
          let shared = shared_attrs !live atom in
          match find_witness !live atom shared with
          | Some witness ->
              steps := { ear = fst atom; witness } :: !steps;
              live :=
                List.filter (fun (r, _) -> not (String.equal r (fst atom))) !live;
              progress := true
          | None -> try_atoms rest)
    in
    try_atoms !live
  done;
  if !live = [] then Acyclic (List.rev !steps)
  else Cyclic (List.map fst !live)

let is_acyclic cq = match decompose cq with Acyclic _ -> true | Cyclic _ -> false

let elimination cq =
  match decompose cq with
  | Acyclic steps -> steps
  | Cyclic residual ->
      Errors.schema_errorf "CQ %s is cyclic (residual atoms: %s)" (Cq.name cq)
        (String.concat ", " residual)
