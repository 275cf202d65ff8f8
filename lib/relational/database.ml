module M = Map.Make (String)

type t = Relation.t M.t

let empty = M.empty
let of_list l = List.fold_left (fun m (name, r) -> M.add name r m) M.empty l
let add ~name rel db = M.add name rel db

let find name db =
  match M.find_opt name db with
  | Some r -> r
  | None -> Errors.data_errorf "unknown relation %s" name

let find_opt = M.find_opt
let mem = M.mem
let names db = M.fold (fun name _ acc -> name :: acc) db [] |> List.rev

let update ~name f db =
  let current = find name db in
  M.add name (f current) db

let fold f db init = M.fold f db init

let total_tuples db =
  M.fold (fun _ r acc -> Count.add acc (Relation.cardinality r)) db Count.zero

let pp ppf db =
  Format.fprintf ppf "@[<v>";
  M.iter
    (fun name r ->
      Format.fprintf ppf "%s %a@," name Relation.pp_summary r)
    db;
  Format.fprintf ppf "@]"
