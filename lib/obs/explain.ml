module Physical = Qs_plan.Physical
module Fragment = Qs_stats.Fragment
module Expr = Qs_query.Expr
module Index = Qs_storage.Index
module Table = Qs_storage.Table
module Span = Qs_util.Span

let ms t = Printf.sprintf "%.2fms" (t *. 1000.0)

let annotation stats (p : Physical.t) =
  match stats with
  | None -> Printf.sprintf "(est=%.0f)" p.Physical.est_rows
  | Some st -> (
      match Hashtbl.find_opt st p.Physical.id with
      | None -> Printf.sprintf "(est=%.0f never executed)" p.Physical.est_rows
      | Some actual ->
          Printf.sprintf "(est=%.0f actual=%d q=%.2f)" p.Physical.est_rows actual
            (Qerror.value ~est:p.Physical.est_rows ~actual))

(* Summed duration of the [cat] spans the executor tied to one plan node
   through their [node] argument. *)
let node_time spans cat (p : Physical.t) =
  let id = string_of_int p.Physical.id in
  List.fold_left
    (fun acc (s : Span.span) ->
      if s.Span.cat = cat && List.assoc_opt "node" s.Span.args = Some id then
        Some (Option.value acc ~default:0.0 +. s.Span.dur)
      else acc)
    None spans

(* Timings at pipeline granularity: the run's pipeline span sits on the
   root, breaker spans on the joins that buffer an input. Fused
   operators have no time of their own and show none. *)
let timings spans p =
  let part label cat =
    match node_time spans cat p with
    | Some t -> Printf.sprintf " %s=%s" label (ms t)
    | None -> ""
  in
  part "pipeline" Span.Pipeline ^ part "breaker" Span.Breaker

(* Operator input volumes, derived from the plan: a leaf scans its whole
   table; a join consumes its children's actual outputs. *)
let volumes stats (p : Physical.t) =
  let actual (c : Physical.t) =
    Option.value (Hashtbl.find_opt stats c.Physical.id) ~default:0
  in
  match p.Physical.node with
  | Physical.Scan i -> Printf.sprintf " scanned=%d" (Table.n_rows i.Fragment.table)
  | Physical.Join { method_ = Physical.Hash; left; right; _ } ->
      Printf.sprintf " built=%d probed=%d" (actual left) (actual right)
  | Physical.Join { left; _ } -> Printf.sprintf " outer=%d" (actual left)

let render ?stats ?spans plan =
  let details =
    match (stats, spans) with
    | Some st, Some tr ->
        let spans = Span.spans tr in
        fun (p : Physical.t) ->
          if Hashtbl.mem st p.Physical.id then timings spans p ^ volumes st p
          else ""
    | _ -> fun _ -> ""
  in
  let buf = Buffer.create 512 in
  let rec go (p : Physical.t) indent =
    let pad = String.make (indent * 2) ' ' in
    match p.Physical.node with
    | Physical.Scan i ->
        Buffer.add_string buf
          (Printf.sprintf "%sScan %s%s%s  %s%s\n" pad i.Fragment.id
             (if i.Fragment.is_temp then " [temp]" else "")
             (match List.length i.Fragment.filters with
             | 0 -> ""
             | k -> Printf.sprintf " [%d filters]" k)
             (annotation stats p) (details p))
    | Physical.Join j ->
        let idx =
          match j.Physical.index with
          | Some (ix, _, _) -> " index=" ^ Index.name ix
          | None -> ""
        in
        Buffer.add_string buf
          (Printf.sprintf "%s%s on %s%s  %s%s\n" pad
             (Physical.method_name j.Physical.method_)
             (String.concat " AND " (List.map Expr.to_string j.Physical.preds))
             idx (annotation stats p) (details p));
        go j.Physical.left (indent + 1);
        go j.Physical.right (indent + 1)
  in
  go plan 0;
  Buffer.contents buf

let summary ~stats plan =
  let nodes = ref 0 and max_q = ref 1.0 and sum_q = ref 0.0 in
  let under = ref 0 in
  List.iter
    (fun (p : Physical.t) ->
      match Hashtbl.find_opt stats p.Physical.id with
      | Some actual ->
          let est = p.Physical.est_rows in
          incr nodes;
          let q = Qerror.value ~est ~actual in
          if q > !max_q then max_q := q;
          sum_q := !sum_q +. q;
          if Qerror.underestimated ~est ~actual then incr under
      | None -> ())
    (Physical.nodes plan);
  if !nodes = 0 then "0 nodes traced"
  else
    Printf.sprintf "%d nodes, q-error max=%.2f mean=%.2f, underest=%.0f%%" !nodes
      !max_q
      (!sum_q /. float_of_int !nodes)
      (100.0 *. float_of_int !under /. float_of_int !nodes)
