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

(* Exact SUM and AVG. An Int argument adds into an [int] (exact, where
   a float loses bits above 2^53); a Float argument adds into Shewchuk
   partials: non-overlapping floats whose sum is exactly the sum of
   every finite value fed, so the result rounds that exact sum once,
   as Python's [math.fsum] does. Either way the result is a function of
   the multiset of values, not of the order the plan feeds them in.
   Non-finite values (and a partial sum that overflows) add into
   [special] instead, which then is the result (inf, or nan). *)
type acc = {
  mutable count : int;
  mutable isum : int;
  mutable partials : float array;  (* [0 .. np-1] live, increasing magnitude *)
  mutable np : int;
  mutable special : float;  (* 0.0 until a non-finite value arrives *)
  mutable sum_is_int : bool;
  mutable min_v : Value.t;
  mutable max_v : Value.t;
  mutable non_null : int;
}

let fresh_acc () =
  {
    count = 0;
    isum = 0;
    partials = [||];
    np = 0;
    special = 0.0;
    sum_is_int = true;
    min_v = Value.Null;
    max_v = Value.Null;
    non_null = 0;
  }

(* Add [x] to the partials: each partial in turn absorbs [x] by an
   error-free two-sum, keeping the nonzero rounding error as a partial
   and carrying the rounded sum on. *)
let add_exact acc x =
  if not (Float.is_finite x) then acc.special <- acc.special +. x
  else begin
    let x = ref x and k = ref 0 in
    for i = 0 to acc.np - 1 do
      let y = Array.unsafe_get acc.partials i in
      let hi = !x +. y in
      let lo = if Float.abs !x < Float.abs y then !x -. (hi -. y) else y -. (hi -. !x) in
      if lo <> 0.0 then begin
        Array.unsafe_set acc.partials !k lo;
        incr k
      end;
      x := hi
    done;
    if not (Float.is_finite !x) then begin
      acc.special <- acc.special +. !x;
      acc.np <- !k
    end
    else begin
      if !k = Array.length acc.partials then begin
        let grown = Array.make (max 4 (2 * !k)) 0.0 in
        Array.blit acc.partials 0 grown 0 !k;
        acc.partials <- grown
      end;
      acc.partials.(!k) <- !x;
      acc.np <- !k + 1
    end
  end

(* The partials' sum, correctly rounded (half to even): add from the
   largest down until a step is inexact, then correct a tie that the
   rest of the partials break. *)
let round_partials p np =
  if np = 0 then 0.0
  else begin
    let n = ref (np - 1) in
    let hi = ref p.(!n) and lo = ref 0.0 in
    let exact = ref true in
    while !exact && !n > 0 do
      decr n;
      let x = !hi and y = p.(!n) in
      hi := x +. y;
      lo := y -. (!hi -. x);
      if !lo <> 0.0 then exact := false
    done;
    if !n > 0 && ((!lo < 0.0 && p.(!n - 1) < 0.0) || (!lo > 0.0 && p.(!n - 1) > 0.0)) then begin
      let y = !lo *. 2.0 in
      let x = !hi +. y in
      if y = x -. !hi then hi := x
    end;
    !hi
  end

(* The exact sum of every value fed, rounded once: the Float partials
   plus the int sum, split into two halves that are exact as floats *)
let exact_total acc =
  if not (Float.is_finite acc.special) then acc.special
  else begin
    let t = { acc with partials = Array.sub acc.partials 0 acc.np } in
    let high = (acc.isum asr 32) lsl 32 in
    add_exact t (float_of_int high);
    add_exact t (float_of_int (acc.isum - high));
    if Float.is_finite t.special then round_partials t.partials t.np else t.special
  end

let feed acc v =
  acc.count <- acc.count + 1;
  if not (Value.is_null v) then begin
    acc.non_null <- acc.non_null + 1;
    (match v with
    | Value.Int i -> acc.isum <- acc.isum + i
    | Value.Float f ->
        add_exact acc f;
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
      else if acc.sum_is_int then Value.Int acc.isum
      else Value.Float (exact_total acc)
  | Logical.Min -> acc.min_v
  | Logical.Max -> acc.max_v
  | Logical.Avg ->
      if acc.non_null = 0 then Value.Null
      else Value.Float (exact_total acc /. float_of_int acc.non_null)

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
  Table.create ~inputs:[ tbl ] ~name ~schema:out_schema rows

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
      Table.of_chunks ~inputs:tables ~name ~schema:template.Table.schema chunks

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
  let out = Table.of_chunks ~inputs:[ left; right ] ~name:left.Table.name ~schema:lschema chunks in
  flatten ~name out
