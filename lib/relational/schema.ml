type t = Attr.t array

let of_list attrs =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun a ->
      if Hashtbl.mem seen a then
        Errors.schema_errorf "duplicate attribute %a in schema" Attr.pp a;
      Hashtbl.add seen a ())
    attrs;
  Array.of_list attrs

let empty = [||]
let attrs s = Array.to_list s
let arity = Array.length
let mem a s = Array.exists (Attr.equal a) s

let index_opt a s =
  let rec loop i =
    if i >= Array.length s then None
    else if Attr.equal s.(i) a then Some i
    else loop (i + 1)
  in
  loop 0

let index a s =
  match index_opt a s with
  | Some i -> i
  | None -> Errors.schema_errorf "attribute %a not in schema" Attr.pp a

let inter a b = Array.of_list (List.filter (fun x -> mem x b) (attrs a))

let union a b =
  Array.append a (Array.of_list (List.filter (fun x -> not (mem x a)) (attrs b)))

let diff a b = Array.of_list (List.filter (fun x -> not (mem x b)) (attrs a))
let subset a b = Array.for_all (fun x -> mem x b) a
let equal a b = Array.length a = Array.length b && Array.for_all2 Attr.equal a b
let equal_as_sets a b = subset a b && subset b a
let disjoint a b = not (Array.exists (fun x -> mem x b) a)

(* A loop rather than [Array.map], so that a call allocates only its
   result: point lookups call this once per probe. *)
let positions ~sub super =
  let p = Array.make (Array.length sub) 0 in
  for i = 0 to Array.length sub - 1 do
    p.(i) <- index sub.(i) super
  done;
  p

let rename mapping s =
  let image a =
    match List.assoc_opt a mapping with Some b -> b | None -> a
  in
  of_list (List.map image (attrs s))

let restrict ~keep s = Array.of_list (List.filter keep (attrs s))

let pp ppf s =
  Format.fprintf ppf "(%a)" Attr.pp_list (attrs s)

let to_string s = Format.asprintf "%a" pp s
