(* One global sink. The disabled path is the contract that lets this sit
   inside per-row loops: every entry point starts with [if not !on] on an
   immutable-after-startup ref, so instrumentation costs a branch until
   someone flips the toggle. *)

let on = ref false
let enabled () = !on
let enable () = on := true
let disable () = on := false
let now_seconds = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Counters and gauges: interned mutable records, so the enabled path is
   a field update and the handle can live in a client module's top-level
   binding. *)

type counter = { mutable c_total : int }
type gauge = { mutable g_max : int; mutable g_set : bool }

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 32

let counter name =
  match Hashtbl.find_opt counters name with
  | Some c -> c
  | None ->
      let c = { c_total = 0 } in
      Hashtbl.replace counters name c;
      c

let add c n = if !on then c.c_total <- c.c_total + n
let tick c = add c 1

(* Intern only when live, keeping the disabled path allocation-free. *)
let count name n = if !on then add (counter name) n

let gauge name =
  match Hashtbl.find_opt gauges name with
  | Some g -> g
  | None ->
      let g = { g_max = 0; g_set = false } in
      Hashtbl.replace gauges name g;
      g

let observe g v =
  if !on then begin
    if (not g.g_set) || v > g.g_max then g.g_max <- v;
    g.g_set <- true
  end

(* ------------------------------------------------------------------ *)
(* Spans: aggregated per nesting path, never per activation, so a join
   called a thousand times under one phase is one row. The stack carries,
   per open activation, the accumulated child time used to derive self
   time on exit. *)

type span_agg = {
  mutable calls : int;
  mutable total_s : float;
  mutable child_s : float;
}

let spans : (string, span_agg) Hashtbl.t = Hashtbl.create 64

(* (path of the open span, wall seconds its children have consumed) *)
let stack : (string * float ref) list ref = ref []

let span_agg path =
  match Hashtbl.find_opt spans path with
  | Some s -> s
  | None ->
      let s = { calls = 0; total_s = 0.0; child_s = 0.0 } in
      Hashtbl.replace spans path s;
      s

let span name f =
  if not !on then f ()
  else begin
    let path =
      match !stack with
      | [] -> name
      | (parent, _) :: _ -> parent ^ "/" ^ name
    in
    let children = ref 0.0 in
    stack := (path, children) :: !stack;
    let t0 = now_seconds () in
    let finish () =
      let dt = now_seconds () -. t0 in
      (match !stack with
      | (p, _) :: rest when String.equal p path -> stack := rest
      | _ -> () (* toggled mid-span; drop the unbalanced frame silently *));
      (match !stack with
      | (_, parent_children) :: _ -> parent_children := !parent_children +. dt
      | [] -> ());
      let agg = span_agg path in
      agg.calls <- agg.calls + 1;
      agg.total_s <- agg.total_s +. dt;
      agg.child_s <- agg.child_s +. !children
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let reset () =
  Hashtbl.iter (fun _ c -> c.c_total <- 0) counters;
  Hashtbl.iter
    (fun _ g ->
      g.g_max <- 0;
      g.g_set <- false)
    gauges;
  Hashtbl.reset spans;
  stack := []

(* ------------------------------------------------------------------ *)

module Report = struct
  type span_stat = {
    path : string;
    calls : int;
    seconds : float;
    self_seconds : float;
  }

  type total = { name : string; total : int }

  type t = {
    spans : span_stat list;
    counters : total list;
    gauges : total list;
  }

  let capture () =
    let spans =
      Hashtbl.fold
        (fun path (agg : span_agg) acc ->
          {
            path;
            calls = agg.calls;
            seconds = agg.total_s;
            self_seconds = Float.max 0.0 (agg.total_s -. agg.child_s);
          }
          :: acc)
        spans []
      |> List.sort (fun a b -> String.compare a.path b.path)
    in
    let counters =
      Hashtbl.fold
        (fun name c acc ->
          if c.c_total = 0 then acc else { name; total = c.c_total } :: acc)
        counters []
      |> List.sort (fun a b -> String.compare a.name b.name)
    in
    let gauges =
      Hashtbl.fold
        (fun name g acc ->
          if g.g_set then { name; total = g.g_max } :: acc else acc)
        gauges []
      |> List.sort (fun a b -> String.compare a.name b.name)
    in
    { spans; counters; gauges }

  (* Hand-rolled JSON: the library must not pull in a serializer. *)
  let escape_into buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  let to_json t =
    let buf = Buffer.create 1024 in
    let sep first = if !first then first := false else Buffer.add_char buf ',' in
    let list field items emit =
      Buffer.add_char buf '"';
      Buffer.add_string buf field;
      Buffer.add_string buf "\":[";
      let first = ref true in
      List.iter
        (fun item ->
          sep first;
          emit item)
        items;
      Buffer.add_char buf ']'
    in
    Buffer.add_char buf '{';
    list "spans" t.spans (fun s ->
        Buffer.add_string buf "{\"path\":\"";
        escape_into buf s.path;
        Buffer.add_string buf
          (Printf.sprintf "\",\"calls\":%d,\"seconds\":%.6f,\"self_seconds\":%.6f}"
             s.calls s.seconds s.self_seconds));
    Buffer.add_char buf ',';
    let totals field items =
      list field items (fun { name; total } ->
          Buffer.add_string buf "{\"name\":\"";
          escape_into buf name;
          Buffer.add_string buf (Printf.sprintf "\",\"total\":%d}" total))
    in
    totals "counters" t.counters;
    Buffer.add_char buf ',';
    totals "gauges" t.gauges;
    Buffer.add_char buf '}';
    Buffer.contents buf

  let pp ppf t =
    let open Format in
    fprintf ppf "@[<v>";
    if t.spans <> [] then begin
      let w =
        List.fold_left (fun acc s -> max acc (String.length s.path)) 4 t.spans
      in
      fprintf ppf "%-*s  %8s  %10s  %10s@," w "span" "calls" "total" "self";
      List.iter
        (fun s ->
          fprintf ppf "%-*s  %8d  %9.3fms  %9.3fms@," w s.path s.calls
            (1e3 *. s.seconds) (1e3 *. s.self_seconds))
        t.spans
    end;
    let totals title items =
      if items <> [] then begin
        let w =
          List.fold_left
            (fun acc { name; _ } -> max acc (String.length name))
            (String.length title) items
        in
        fprintf ppf "%-*s  %12s@," w title "total";
        List.iter
          (fun { name; total } -> fprintf ppf "%-*s  %12d@," w name total)
          items
      end
    in
    totals "counter" t.counters;
    totals "gauge" t.gauges;
    fprintf ppf "@]"
end
