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

(* Every error names the 1-based line it was found on; the header is
   line 1. *)
let input ?schema ic =
  let line_no = ref 0 in
  let fail fmt = Errors.data_errorf ("line %d: " ^^ fmt) !line_no in
  let next_line () =
    let line = input_line ic in
    incr line_no;
    line
  in
  let header =
    try next_line ()
    with End_of_file ->
      line_no := 1;
      fail "CSV input is empty"
  in
  let attrs =
    match List.rev (split_line header) with
    | "cnt" :: rest -> List.rev rest
    | _ -> fail "CSV header %S lacks a trailing cnt column" header
  in
  let file_schema =
    try Schema.of_list attrs
    with Errors.Schema_error msg -> fail "CSV header: %s" msg
  in
  let schema =
    match schema with
    | None -> file_schema
    | Some s ->
        if not (Schema.equal s file_schema) then
          fail "CSV header %a does not match expected schema %a" Schema.pp
            file_schema Schema.pp s;
        s
  in
  let arity = Schema.arity schema in
  let rows = ref [] in
  (try
     while true do
       let line = next_line () in
       if String.trim line <> "" then begin
         let fields = split_line line in
         let values, cnt_field =
           match List.rev fields with
           | c :: rest when List.length fields = arity + 1 -> (List.rev rest, c)
           | _ ->
               fail "CSV row %S has %d fields, expected %d" line
                 (List.length fields) (arity + 1)
         in
         let cnt =
           match int_of_string_opt cnt_field with
           | Some c when c > 0 -> c
           | Some _ | None ->
               fail "CSV row %S has invalid count %S" line cnt_field
         in
         let tup = Tuple.of_list (List.map Value.of_string values) in
         rows := (tup, cnt) :: !rows
       end
     done
   with End_of_file -> ());
  Relation.create ~schema (List.rev !rows)

let read_file ?schema path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input ?schema ic)
