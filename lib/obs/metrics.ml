type t = {
  counters : (string, int ref) Hashtbl.t;
  histograms : (string, Histogram.t) Hashtbl.t;
}

let create () = { counters = Hashtbl.create 16; histograms = Hashtbl.create 16 }

let incr ?(by = 1) t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.replace t.counters name (ref by)

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let observe t name v =
  let h =
    match Hashtbl.find_opt t.histograms name with
    | Some h -> h
    | None ->
        let h = Histogram.create () in
        Hashtbl.replace t.histograms name h;
        h
  in
  Histogram.observe h v

let histogram t name = Hashtbl.find_opt t.histograms name

let add_histogram t name h =
  let dst =
    match Hashtbl.find_opt t.histograms name with
    | Some dst -> dst
    | None ->
        let dst = Histogram.create () in
        Hashtbl.replace t.histograms name dst;
        dst
  in
  Histogram.merge ~into:dst h

(* Merging is how per-domain registries become one report: each worker
   records into its own [t] (no cross-domain mutation), and the harness
   folds them together once the parallel region is over. *)
let merge ~into src =
  Hashtbl.iter (fun name r -> incr ~by:!r into name) src.counters;
  Hashtbl.iter
    (fun name h ->
      let dst =
        match Hashtbl.find_opt into.histograms name with
        | Some dst -> dst
        | None ->
            let dst = Histogram.create () in
            Hashtbl.replace into.histograms name dst;
            dst
      in
      Histogram.merge ~into:dst h)
    src.histograms

let sorted_keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare

let counter_names t = sorted_keys t.counters

let histogram_names t = sorted_keys t.histograms

(* --- JSON rendering (no external dependency) ------------------------- *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float v =
  if Float.is_nan v then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.1f" v
  else Printf.sprintf "%.6g" v

let obj fields = "{" ^ String.concat ", " fields ^ "}"

let field k v = Printf.sprintf "\"%s\": %s" (escape k) v

let hist_json h =
  obj
    [
      field "count" (string_of_int (Histogram.count h));
      field "sum" (json_float (Histogram.sum h));
      field "mean" (json_float (Histogram.mean h));
      field "min" (json_float (Histogram.min_value h));
      field "max" (json_float (Histogram.max_value h));
      field "p50" (json_float (Histogram.percentile h 0.5));
      field "p90" (json_float (Histogram.percentile h 0.9));
      field "p95" (json_float (Histogram.percentile h 0.95));
      field "p99" (json_float (Histogram.percentile h 0.99));
    ]

let to_json t =
  let counters =
    counter_names t |> List.map (fun k -> field k (string_of_int (counter t k)))
  in
  let histograms =
    histogram_names t
    |> List.map (fun k -> field k (hist_json (Option.get (histogram t k))))
  in
  obj [ field "counters" (obj counters); field "histograms" (obj histograms) ]

(* one entry per line, so a line diff of two dumps names the entry *)
let json_of_many labelled =
  "{\n"
  ^ String.concat ",\n"
      (List.map (fun (label, t) -> field label (to_json t)) labelled)
  ^ "\n}"
