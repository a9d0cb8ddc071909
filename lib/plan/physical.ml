module Expr = Qs_query.Expr
module Fragment = Qs_stats.Fragment
module Index = Qs_storage.Index

type join_method = Hash | Index_nl | Nl

type t = {
  id : int;
  node : node;
  est_rows : float;
  est_cost : float;
  rels : string list;
}

and node =
  | Scan of Fragment.input
  | Join of join

and join = {
  method_ : join_method;
  left : t;
  right : t;
  preds : Expr.pred list;
  index : (Index.t * Expr.colref * Expr.colref) option;
}

(* Shared by every planning domain (harness cells, serving sessions):
   an atomic counter, so no two nodes ever get the same id. *)
let next_id = Atomic.make 1

let fresh_id () = Atomic.fetch_and_add next_id 1

let scan input ~est_rows ~est_cost =
  {
    id = fresh_id ();
    node = Scan input;
    est_rows;
    est_cost;
    rels = input.Fragment.provides;
  }

let join ~method_ ?index () ~left ~right ~preds ~est_rows ~est_cost =
  (match (method_, index) with
  | Index_nl, None -> invalid_arg "Physical.join: Index_nl requires an index"
  | (Hash | Nl), Some _ -> invalid_arg "Physical.join: index only valid for Index_nl"
  | _ -> ());
  {
    id = fresh_id ();
    node = Join { method_; left; right; preds; index };
    est_rows;
    est_cost;
    rels = left.rels @ right.rels;
  }

let rec leaves t =
  match t.node with
  | Scan i -> [ i ]
  | Join j -> leaves j.left @ leaves j.right

let rec joins_post_order t =
  match t.node with
  | Scan _ -> []
  | Join j -> joins_post_order j.left @ joins_post_order j.right @ [ t ]

let deepest_join t =
  List.find_opt
    (fun n ->
      match n.node with
      | Join { left = { node = Scan _; _ }; right = { node = Scan _; _ }; _ } -> true
      | _ -> false)
    (joins_post_order t)

let rec find t id =
  if t.id = id then Some t
  else
    match t.node with
    | Scan _ -> None
    | Join j -> ( match find j.left id with Some n -> Some n | None -> find j.right id)

let rec replace t ~id ~by =
  if t.id = id then by
  else
    match t.node with
    | Scan _ -> t
    | Join j ->
        let left = replace j.left ~id ~by in
        let right = replace j.right ~id ~by in
        if left == j.left && right == j.right then t
        else
          {
            t with
            node = Join { j with left; right };
            rels = left.rels @ right.rels;
          }

let n_joins t = List.length (joins_post_order t)

(* Pipeline-breaker annotation for the morsel-driven executor: the child
   subtrees whose full result must exist before the parent's pipeline
   can start streaming. A hash join's build side feeds the hash table; a
   plain NL join rescans its inner side per outer row. Index-NL probes
   stream — the inner side is consumed through the index, not scanned —
   and a hash join's probe side is the pipeline itself. *)
let breaker_children t =
  match t.node with
  | Scan _ -> []
  | Join { method_ = Hash; left; _ } -> [ left ]
  | Join { method_ = Nl; right; _ } -> [ right ]
  | Join { method_ = Index_nl; _ } -> []

let rec breaker_edges t =
  match t.node with
  | Scan _ -> []
  | Join j ->
      List.map (fun (c : t) -> (t.id, c.id)) (breaker_children t)
      @ breaker_edges j.left @ breaker_edges j.right

(* Every breaker edge cuts one pipeline off the plan; what remains is
   one pipeline per cut plus the sink pipeline. *)
let n_pipelines t = List.length (breaker_edges t) + 1

let join_leaf_sets t =
  List.map (fun n -> List.sort compare n.rels) (joins_post_order t)

let rec nodes t =
  match t.node with
  | Scan _ -> [ t ]
  | Join j -> (t :: nodes j.left) @ nodes j.right

let method_name = function Hash -> "HashJoin" | Index_nl -> "IndexNLJoin" | Nl -> "NLJoin"

let to_string t =
  let buf = Buffer.create 256 in
  let rec go t indent =
    let pad = String.make (indent * 2) ' ' in
    (match t.node with
    | Scan i ->
        Buffer.add_string buf
          (Printf.sprintf "%sScan %s%s (rows=%.0f cost=%.1f)\n" pad i.Fragment.id
             (if i.Fragment.is_temp then " [temp]" else "")
             t.est_rows t.est_cost)
    | Join j ->
        let idx =
          match j.index with
          | Some (ix, _, _) -> " index=" ^ Index.name ix
          | None -> ""
        in
        Buffer.add_string buf
          (Printf.sprintf "%s%s on %s%s (rows=%.0f cost=%.1f)\n" pad
             (method_name j.method_)
             (String.concat " AND " (List.map Expr.to_string j.preds))
             idx t.est_rows t.est_cost);
        go j.left (indent + 1);
        go j.right (indent + 1))
  in
  go t 0;
  Buffer.contents buf

let pp fmt t = Format.pp_print_string fmt (to_string t)
