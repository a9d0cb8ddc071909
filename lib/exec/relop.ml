module Table = Qs_storage.Table
module Schema = Qs_storage.Schema
module Value = Qs_storage.Value
module Chunk = Qs_storage.Chunk
module Columnar = Qs_storage.Columnar
module Expr = Qs_query.Expr
module Logical = Qs_plan.Logical

let flatten ~name (tbl : Table.t) =
  let seen = Hashtbl.create 8 in
  let schema =
    Array.map
      (fun (c : Schema.column) ->
        let flat = c.Schema.rel ^ "_" ^ c.Schema.name in
        let flat =
          if Hashtbl.mem seen flat then (
            let k = Hashtbl.find seen flat + 1 in
            Hashtbl.replace seen flat k;
            Printf.sprintf "%s_%d" flat k)
          else (
            Hashtbl.replace seen flat 0;
            flat)
        in
        { Schema.rel = name; name = flat; ty = c.Schema.ty })
      tbl.Table.schema
  in
  Table.reschema ~name ~schema tbl

type acc = {
  mutable count : int;
  mutable sum : float;
  mutable sum_is_int : bool;
  mutable min_v : Value.t;
  mutable max_v : Value.t;
  mutable non_null : int;
}

let fresh_acc () =
  { count = 0; sum = 0.0; sum_is_int = true; min_v = Value.Null; max_v = Value.Null; non_null = 0 }

let feed acc v =
  acc.count <- acc.count + 1;
  if not (Value.is_null v) then begin
    acc.non_null <- acc.non_null + 1;
    (match v with
    | Value.Int i -> acc.sum <- acc.sum +. float_of_int i
    | Value.Float f ->
        acc.sum <- acc.sum +. f;
        acc.sum_is_int <- false
    | _ -> ());
    if Value.is_null acc.min_v || Value.compare v acc.min_v < 0 then acc.min_v <- v;
    if Value.is_null acc.max_v || Value.compare v acc.max_v > 0 then acc.max_v <- v
  end

let finish (fn : Logical.agg_fn) acc =
  match fn with
  | Logical.Count_star -> Value.Int acc.count
  | Logical.Count -> Value.Int acc.non_null
  | Logical.Sum ->
      if acc.non_null = 0 then Value.Null
      else if acc.sum_is_int then Value.Int (int_of_float acc.sum)
      else Value.Float acc.sum
  | Logical.Min -> acc.min_v
  | Logical.Max -> acc.max_v
  | Logical.Avg ->
      if acc.non_null = 0 then Value.Null
      else Value.Float (acc.sum /. float_of_int acc.non_null)

let agg_out_ty (fn : Logical.agg_fn) v =
  match fn with
  | Logical.Count_star | Logical.Count -> Value.TInt
  | Logical.Avg -> Value.TFloat
  | _ -> ( match Value.type_of v with Some ty -> ty | None -> Value.TInt)

let aggregate ~name ~group_by ~aggs (tbl : Table.t) =
  let schema = tbl.Table.schema in
  let gpos =
    List.map
      (fun (c : Expr.colref) -> Schema.find_exn schema ~rel:c.Expr.rel ~name:c.Expr.name)
      group_by
  in
  (* the hash key is the group values themselves, which are also the
     output's group columns — no sample row is retained *)
  let entry groups order key =
    match Hashtbl.find_opt groups key with
    | Some accs -> accs
    | None ->
        let accs = Array.init (List.length aggs) (fun _ -> fresh_acc ()) in
        Hashtbl.replace groups key accs;
        order := key :: !order;
        accs
  in
  let arg_fns =
    List.map
      (fun (a : Logical.agg) -> Option.map (Expr.compile_scalar schema) a.Logical.arg)
      aggs
  in
  let feed_row groups order row =
    let key = List.map (fun p -> row.(p)) gpos in
    let accs = entry groups order key in
    List.iteri
      (fun i arg ->
        let v =
          match arg with
          | None -> Value.Int 1 (* COUNT of rows *)
          | Some f -> f row
        in
        feed accs.(i) v)
      arg_fns
  in
  (* Columnar hash aggregation: when every aggregate argument is absent
     or a plain column reference, a columnar chunk feeds the hash table
     from batch-decoded group-key and argument columns — one decode
     sweep per column per chunk instead of per-row schema lookups. Any
     arithmetic argument (or a row chunk) takes the row path. *)
  let arg_cols =
    List.map
      (fun (a : Logical.agg) ->
        match a.Logical.arg with
        | None -> `Count
        | Some (Expr.Col c) ->
            `Col (Schema.find_exn schema ~rel:c.Expr.rel ~name:c.Expr.name)
        | Some _ -> `Eval)
      aggs
  in
  let batchable = List.for_all (fun c -> c <> `Eval) arg_cols in
  let feed_chunk_data groups order (chunk : Chunk.t) =
    match Chunk.columnar chunk with
    | Some col when batchable ->
        let n = Columnar.n_rows col in
        let kcols = List.map (Columnar.column_values col) gpos in
        let acols =
          List.map
            (function
              | `Col p -> Some (Columnar.column_values col p)
              | `Count | `Eval -> None)
            arg_cols
        in
        for i = 0 to n - 1 do
          let key = List.map (fun a -> a.(i)) kcols in
          let accs = entry groups order key in
          List.iteri
            (fun ai av ->
              feed accs.(ai)
                (match av with Some a -> a.(i) | None -> Value.Int 1))
            acols
        done
    | _ -> Array.iter (feed_row groups order) (Chunk.rows chunk)
  in
  let groups : (Value.t list, acc array) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  Table.iter_chunk_data (fun _ c -> feed_chunk_data groups order c) tbl;
  (* a global aggregate over an empty input still yields one row *)
  if Hashtbl.length groups = 0 && group_by = [] then begin
    Hashtbl.replace groups []
      (Array.init (List.length aggs) (fun _ -> fresh_acc ()));
    order := [ [] ]
  end;
  let rows =
    List.rev_map
      (fun key ->
        let accs = Hashtbl.find groups key in
        Array.of_list
          (key @ List.mapi (fun i (a : Logical.agg) -> finish a.Logical.fn accs.(i)) aggs))
      !order
  in
  let rows = Array.of_list rows in
  let sample_agg_vals =
    if Array.length rows > 0 then
      Array.to_list (Array.sub rows.(0) (List.length group_by) (List.length aggs))
    else List.map (fun _ -> Value.Null) aggs
  in
  let out_schema =
    Array.of_list
      (List.map2
         (fun (c : Expr.colref) p ->
           { Schema.rel = name; name = Logical.group_label c; ty = schema.(p).Schema.ty })
         group_by gpos
      @ List.map2
          (fun (a : Logical.agg) v ->
            { Schema.rel = name; name = a.Logical.label; ty = agg_out_ty a.Logical.fn v })
          aggs sample_agg_vals)
  in
  Table.create ~name ~schema:out_schema rows

let union_all ~name tables =
  match tables with
  | [] -> invalid_arg "Relop.union_all: no inputs"
  | first :: _ ->
      let template = flatten ~name first in
      let arity = Schema.arity template.Table.schema in
      List.iter
        (fun (t : Table.t) ->
          if Schema.arity t.Table.schema <> arity then
            invalid_arg "Relop.union_all: arity mismatch")
        tables;
      let chunks = List.concat_map Table.chunk_list tables in
      Table.of_chunks ~name ~schema:template.Table.schema chunks

let semi_join ~name ~anti ~(left : Table.t) ~(right : Table.t) ~on =
  let lschema = left.Table.schema in
  let rschema = right.Table.schema in
  let is_left (c : Expr.colref) = Schema.mem lschema ~rel:c.Expr.rel ~name:c.Expr.name in
  let equi, residual =
    List.partition_map
      (fun p ->
        match Expr.join_sides p with
        | Some (a, b) when is_left a -> Either.Left (a, b)
        | Some (a, b) when is_left b -> Either.Left (b, a)
        | _ -> Either.Right p)
      on
  in
  let lpos =
    List.map (fun ((c : Expr.colref), _) -> Schema.find_exn lschema ~rel:c.Expr.rel ~name:c.Expr.name) equi
  in
  let rpos =
    List.map (fun (_, (c : Expr.colref)) -> Schema.find_exn rschema ~rel:c.Expr.rel ~name:c.Expr.name) equi
  in
  let buckets : (Value.t list, Value.t array list) Hashtbl.t = Hashtbl.create 64 in
  Table.iter
    (fun row ->
      let k = List.map (fun p -> row.(p)) rpos in
      if not (List.exists Value.is_null k) then
        Hashtbl.replace buckets k (row :: Option.value (Hashtbl.find_opt buckets k) ~default:[]))
    right;
  let holds = Expr.compile_all (Schema.concat lschema rschema) residual in
  let matches lrow =
    let k = List.map (fun p -> lrow.(p)) lpos in
    if List.exists Value.is_null k then false
    else
      match Hashtbl.find_opt buckets k with
      | None -> false
      | Some rrows ->
          List.exists (fun rrow -> holds (Array.append lrow rrow)) rrows
  in
  let chunks =
    List.init (Table.n_chunks left) (fun ci ->
        Table.chunk left ci
        |> Array.to_list
        |> List.filter (fun lrow -> if anti then not (matches lrow) else matches lrow)
        |> Array.of_list)
  in
  let out = Table.of_chunks ~name:left.Table.name ~schema:lschema chunks in
  flatten ~name out
