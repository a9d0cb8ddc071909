(* Deterministic text rendering of a span tracer: category breakdown,
   per-domain utilization, pool queue-wait percentiles and the
   re-optimization journal. With [timings:false] every wall-clock figure
   is suppressed so the output depends only on the sequence of recorded
   spans — that form is locked by a golden test. *)

module Span = Qs_util.Span

let ms v = Printf.sprintf "%.2fms" (v *. 1000.0)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))

(* busy time on one track = measure of the union of its span intervals
   (spans nest, so summing durations would double-count) *)
let busy_time spans =
  let intervals =
    List.sort compare
      (List.map (fun (s : Span.span) -> (s.Span.start, s.Span.start +. s.Span.dur)) spans)
  in
  let total, last_end =
    List.fold_left
      (fun (acc, last_end) (lo, hi) ->
        let lo = Float.max lo last_end in
        if hi > lo then (acc +. (hi -. lo), hi) else (acc, last_end))
      (0.0, 0.0) intervals
  in
  ignore last_end;
  total

let rollup spans =
  List.filter_map
    (fun cat ->
      let these = List.filter (fun (s : Span.span) -> s.Span.cat = cat) spans in
      if these = [] then None
      else
        let total =
          List.fold_left (fun acc (s : Span.span) -> acc +. s.Span.dur) 0.0 these
        in
        Some (Span.category_name cat, List.length these, total))
    Span.all_categories

let summary ?(timings = true) t =
  let spans = Span.spans t in
  let buf = Buffer.create 1024 in
  (* per-category breakdown *)
  Buffer.add_string buf "spans by category:\n";
  List.iter
    (fun (name, n, total) ->
      if timings then
        Buffer.add_string buf
          (Printf.sprintf "  %-12s %5d  total=%s\n" name n (ms total))
      else Buffer.add_string buf (Printf.sprintf "  %-12s %5d\n" name n))
    (rollup spans);
  if spans = [] then Buffer.add_string buf "  (none)\n";
  (* per-domain utilization *)
  if timings && spans <> [] then begin
    let wall =
      List.fold_left
        (fun acc (s : Span.span) -> Float.max acc (s.Span.start +. s.Span.dur))
        0.0 spans
    in
    let tracks =
      List.sort_uniq Int.compare (List.map (fun s -> s.Span.track) spans)
    in
    Buffer.add_string buf
      (Printf.sprintf "domain utilization (wall=%s):\n" (ms wall));
    List.iter
      (fun track ->
        let mine = List.filter (fun s -> s.Span.track = track) spans in
        let busy = busy_time mine in
        Buffer.add_string buf
          (Printf.sprintf "  domain-%-3d busy=%s util=%.0f%%\n" track (ms busy)
             (if wall > 0.0 then 100.0 *. busy /. wall else 0.0)))
      tracks
  end;
  (* pool queue-wait percentiles *)
  let waits =
    List.filter (fun (s : Span.span) -> s.Span.cat = Span.Pool_wait) spans
  in
  if waits <> [] then
    if timings then begin
      let durs =
        Array.of_list (List.sort compare (List.map (fun s -> s.Span.dur) waits))
      in
      Buffer.add_string buf
        (Printf.sprintf "pool queue-wait (%d tasks): p50=%s p90=%s p99=%s\n"
           (Array.length durs)
           (ms (percentile durs 0.5))
           (ms (percentile durs 0.9))
           (ms (percentile durs 0.99)))
    end
    else
      Buffer.add_string buf
        (Printf.sprintf "pool queue-wait: %d tasks\n" (List.length waits));
  (* DP throughput: [dp-level] spans carrying per-level candidate
     counters (spans without them — e.g. hand-built traces — render
     nothing). Counts are deterministic; rates only appear with
     timings. *)
  let dp_levels =
    List.filter
      (fun (s : Span.span) ->
        s.Span.cat = Span.Dp_level && List.mem_assoc "emitted" s.Span.args)
      spans
  in
  if dp_levels <> [] then begin
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (s : Span.span) ->
        let arg k =
          match List.assoc_opt k s.Span.args with
          | Some v -> ( try int_of_string v with _ -> 0)
          | None -> 0
        in
        let subsets, emitted, pruned, hits, dur =
          Option.value (Hashtbl.find_opt tbl s.Span.name) ~default:(0, 0, 0, 0, 0.0)
        in
        Hashtbl.replace tbl s.Span.name
          ( subsets + arg "subsets",
            emitted + arg "emitted",
            pruned + arg "pruned",
            hits + arg "memo-hits",
            dur +. s.Span.dur ))
      dp_levels;
    let level_of name =
      match String.rindex_opt name '-' with
      | Some i -> (
          try int_of_string (String.sub name (i + 1) (String.length name - i - 1))
          with _ -> 0)
      | None -> 0
    in
    let rows =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) ->
             compare (level_of a, a) (level_of b, b))
    in
    Buffer.add_string buf "dp levels:\n";
    List.iter
      (fun (name, (subsets, emitted, pruned, hits, dur)) ->
        let counts =
          Printf.sprintf "  %-12s subsets=%d emitted=%d pruned=%d memo-hits=%d"
            name subsets emitted pruned hits
        in
        if timings then
          let cands = emitted + pruned in
          Buffer.add_string buf
            (Printf.sprintf "%s plans/s=%.3g\n" counts
               (if dur > 0.0 then float_of_int cands /. dur else 0.0))
        else Buffer.add_string buf (counts ^ "\n"))
      rows
  end;
  (* DP-memo hit rate from the per-optimize [dp-memo] markers *)
  let memo_marks =
    List.filter (fun (s : Span.span) -> s.Span.cat = Span.Dp_memo) spans
  in
  if memo_marks <> [] then begin
    let hits, misses =
      List.fold_left
        (fun (h, m) (s : Span.span) ->
          let arg k =
            match List.assoc_opt k s.Span.args with
            | Some v -> ( try int_of_string v with _ -> 0)
            | None -> 0
          in
          (h + arg "hits", m + arg "misses"))
        (0, 0) memo_marks
    in
    let total = hits + misses in
    Buffer.add_string buf
      (Printf.sprintf "dp memo: %d calls, hits=%d misses=%d hit-rate=%.0f%%\n"
         (List.length memo_marks) hits misses
         (if total > 0 then 100.0 *. float_of_int hits /. float_of_int total
          else 0.0))
  end;
  (* re-optimization journal *)
  let steps =
    List.filter (fun (s : Span.span) -> s.Span.cat = Span.Reopt_step) spans
    |> List.sort (fun (a : Span.span) b -> Int.compare a.Span.id b.Span.id)
  in
  if steps <> [] then begin
    Buffer.add_string buf "reopt journal:\n";
    List.iteri
      (fun i (s : Span.span) ->
        let arg k = Option.value (List.assoc_opt k s.Span.args) ~default:"?" in
        Buffer.add_string buf
          (Printf.sprintf
             "  %2d. %-28s est=%s actual=%s score=%s replanned=%s remaining=%s%s\n"
             (i + 1) s.Span.name (arg "est_rows") (arg "actual_rows")
             (arg "score") (arg "replanned") (arg "remaining")
             (if timings then " (" ^ ms s.Span.dur ^ ")" else "")))
      steps
  end;
  Buffer.contents buf
