type t = { start_ofs : int; stop_ofs : int }

let make start_ofs stop_ofs =
  if start_ofs < 0 || stop_ofs < start_ofs then
    invalid_arg
      (Printf.sprintf "Srcspan.make: invalid span %d-%d" start_ofs stop_ofs);
  { start_ofs; stop_ofs }

let point ofs = make ofs ofs

let join a b =
  { start_ofs = min a.start_ofs b.start_ofs; stop_ofs = max a.stop_ofs b.stop_ofs }

let join_all = function
  | [] -> None
  | s :: rest -> Some (List.fold_left join s rest)

let whole src = { start_ofs = 0; stop_ofs = String.length src }
let length s = s.stop_ofs - s.start_ofs
let equal a b = a.start_ofs = b.start_ofs && a.stop_ofs = b.stop_ofs

let compare a b =
  match Int.compare a.start_ofs b.start_ofs with
  | 0 -> Int.compare a.stop_ofs b.stop_ofs
  | c -> c

(* The 1-based (line, column) of a byte offset; offsets past the end
   report the position just after the last character. *)
let line_col src ofs =
  let ofs = min (max 0 ofs) (String.length src) in
  let line = ref 1 and bol = ref 0 in
  for i = 0 to ofs - 1 do
    if src.[i] = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  (!line, ofs - !bol + 1)

let extract src s =
  let n = String.length src in
  let start = min (max 0 s.start_ofs) n in
  let stop = min (max start s.stop_ofs) n in
  String.sub src start (stop - start)

let pp ppf s = Format.fprintf ppf "%d-%d" s.start_ofs s.stop_ofs

let pp_in src ppf s =
  let line, col = line_col src s.start_ofs in
  Format.fprintf ppf "%d:%d" line col
