let is_blank c = c = ' ' || c = '\t'

(* Only fields that parse back to themselves may be written: commas and
   newlines would split, and leading/trailing blanks would survive the
   writer verbatim but are indistinguishable from sloppy hand-edited
   padding on the way back in. *)
let check_field s =
  if String.exists (fun c -> c = ',' || c = '\n' || c = '\r') s then
    Errors.data_errorf "CSV field %S contains a separator" s;
  if s <> "" && (is_blank s.[0] || is_blank s.[String.length s - 1]) then
    Errors.data_errorf
      "CSV field %S has leading or trailing whitespace and would not \
       round-trip" s;
  s

let check_header_field s =
  if s = "" then Errors.data_errorf "CSV header has an empty attribute name";
  check_field s

let output oc rel =
  let schema = Relation.schema rel in
  let header =
    String.concat ","
      (List.map check_header_field (Schema.attrs schema) @ [ "cnt" ])
  in
  output_string oc header;
  output_char oc '\n';
  Relation.iter
    (fun tup cnt ->
      if Count.is_saturated cnt then
        Errors.data_errorf
          "CSV output: tuple %a has a saturated count, which only means \
           'at least %d' and cannot be exported as an exact multiplicity"
          Tuple.pp tup Count.max_count;
      let fields =
        Array.to_list tup
        |> List.map (fun v -> check_field (Value.to_string v))
      in
      output_string oc (String.concat "," (fields @ [ string_of_int cnt ]));
      output_char oc '\n')
    rel

let write_file path rel =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output oc rel)

(* [input_line] already strips the '\n'; only a Windows '\r' remains to
   drop. Trimming more would corrupt fields with genuine edge
   whitespace — the writer rejects those, but externally produced files
   may carry them and must be read faithfully. *)
let chomp line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

let split_line line = String.split_on_char ',' (chomp line)

let input ?schema ic =
  let header =
    try input_line ic
    with End_of_file -> Errors.data_errorf "CSV input is empty"
  in
  let columns = split_line header in
  let attrs =
    match List.rev columns with
    | "cnt" :: rest -> List.rev rest
    | _ -> Errors.data_errorf "CSV header %S lacks a trailing cnt column" header
  in
  let file_schema = Schema.of_list attrs in
  let schema =
    match schema with
    | None -> file_schema
    | Some s ->
        if not (Schema.equal s file_schema) then
          Errors.data_errorf "CSV header %a does not match expected schema %a"
            Schema.pp file_schema Schema.pp s;
        s
  in
  let arity = Schema.arity schema in
  let rows = ref [] in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then begin
         let fields = split_line line in
         let values, cnt_field =
           match List.rev fields with
           | c :: rest when List.length fields = arity + 1 -> (List.rev rest, c)
           | _ ->
               Errors.data_errorf "CSV row %S has %d fields, expected %d" line
                 (List.length fields) (arity + 1)
         in
         let cnt =
           match int_of_string_opt cnt_field with
           | Some c when c > 0 -> c
           | Some _ | None ->
               Errors.data_errorf "CSV row %S has invalid count %S" line
                 cnt_field
         in
         let tup = Tuple.of_list (List.map Value.of_string values) in
         rows := (tup, cnt) :: !rows
       end
     done
   with End_of_file -> ());
  let rel = Relation.create ~schema (List.rev !rows) in
  (* Under columnar storage, encode at load time: import is the natural
     dictionary-warming point, and the first join against this relation
     then starts probing immediately instead of paying the intern pass.
     [Relation.encoded] memoizes, so this is free if never used. *)
  if Storage.is_columnar () then ignore (Relation.encoded rel : Colrel.t);
  rel

let read_file ?schema path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input ?schema ic)
