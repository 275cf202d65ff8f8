(* Shared plumbing for the experiment harnesses: timing, table printing,
   scale parsing. *)

let time f =
  let start = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. start)

let seconds_to_string s =
  if s < 0.001 then Printf.sprintf "%.1fus" (s *. 1e6)
  else if s < 1.0 then Printf.sprintf "%.1fms" (s *. 1e3)
  else Printf.sprintf "%.2fs" s

(* Counts can be astronomically large (elastic bounds); scientific
   notation above a million keeps columns narrow. *)
let count_to_string c =
  if Tsens_relational.Count.is_saturated c then "overflow"
  else if c < 1_000_000 then string_of_int c
  else Printf.sprintf "%.2e" (float_of_int c)

let print_heading title =
  Printf.printf "\n=== %s ===\n%!" title

let print_table ~columns rows =
  let widths =
    List.mapi
      (fun i col ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length col) rows)
      columns
  in
  let print_row cells =
    List.iteri
      (fun i cell -> Printf.printf "%-*s  " (List.nth widths i) cell)
      cells;
    print_newline ()
  in
  print_row columns;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows;
  flush stdout

let parse_scales s =
  String.split_on_char ',' s
  |> List.map String.trim
  |> List.filter (fun x -> x <> "")
  |> List.map (fun x ->
         match float_of_string_opt x with
         | Some f when f > 0.0 -> f
         | Some _ | None ->
             raise (Arg.Bad (Printf.sprintf "invalid scale %S" x)))

let default_scales = [ 0.0001; 0.0005; 0.001; 0.005; 0.01 ]

let pp_percent x = Printf.sprintf "%.2f%%" (100.0 *. x)
