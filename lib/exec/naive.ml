module Table = Qs_storage.Table
module Schema = Qs_storage.Schema
module Value = Qs_storage.Value
module Expr = Qs_query.Expr
module Fragment = Qs_stats.Fragment
module Scratch = Qs_util.Scratch

(* Columns of [tbl] still needed: those referenced by predicates not yet
   applied, plus the requested output columns. *)
let prune tbl preds keep =
  let needed (c : Schema.column) =
    List.exists
      (fun p ->
        List.exists
          (fun (r : Expr.colref) -> r.Expr.rel = c.Schema.rel && r.Expr.name = c.Schema.name)
          (Expr.cols_of_pred p))
      preds
    || List.exists
         (fun (r : Expr.colref) -> r.Expr.rel = c.Schema.rel && r.Expr.name = c.Schema.name)
         keep
  in
  let cols =
    Array.to_list tbl.Table.schema
    |> List.filter needed
    |> List.map (fun (c : Schema.column) -> { Expr.rel = c.Schema.rel; name = c.Schema.name })
  in
  if List.length cols = Array.length tbl.Table.schema then tbl
  else if cols = [] then
    (* keep an empty-schema table with the right row count *)
    Table.create ~name:tbl.Table.name ~schema:[||]
      (Array.make (Table.n_rows tbl) [||])
  else Executor.project tbl cols

(* saturating arithmetic: true cardinalities of cartesian products and
   explosive joins can exceed 63-bit range *)
let mul_sat a b =
  if a = 0 || b = 0 then 0
  else if a > max_int / b then max_int
  else a * b

let add_sat a b = if a > max_int - b then max_int else a + b

(* deadline checks are amortized over batches of rows *)
let batch = 16384

(* ------------------------------------------------------------------ *)
(* Materializing execution (reference semantics)                       *)
(* ------------------------------------------------------------------ *)

(* Sequential hash join over two materialized tables, the reference
   join. Equality conjuncts between the two sides become the key, hashed
   as a list in a polymorphic [Hashtbl] (one list even for a one-column
   key); the rest are residual filters, evaluated by [Expr.eval] on the
   concatenated row. *)
let hash_join ?deadline ~(build : Table.t) ~(probe : Table.t) preds =
  let tick () =
    match deadline with
    | Some d when Qs_util.Timer.now () > d -> raise Executor.Timeout
    | _ -> ()
  in
  let out_schema = Schema.concat probe.Table.schema build.Table.schema in
  let in_build (c : Expr.colref) =
    Schema.mem build.Table.schema ~rel:c.Expr.rel ~name:c.Expr.name
  in
  let position (t : Table.t) (c : Expr.colref) =
    Schema.find_exn t.Table.schema ~rel:c.Expr.rel ~name:c.Expr.name
  in
  (* orient keys wrt the build side *)
  let keys, residual =
    List.partition_map
      (fun p ->
        match Expr.join_sides p with
        | Some (a, b) when in_build a -> Either.Left (position build a, position probe b)
        | Some (a, b) when in_build b -> Either.Left (position build b, position probe a)
        | _ -> Either.Right p)
      preds
  in
  let key_of row positions = List.map (fun p -> row.(p)) positions in
  let has_null = List.exists Value.is_null in
  let bpos = List.map fst keys and ppos = List.map snd keys in
  let index : (Value.t list, Value.t array list) Hashtbl.t =
    Hashtbl.create (max 16 (Table.n_rows build))
  in
  Table.iteri
    (fun i row ->
      if i mod batch = 0 then tick ();
      let k = key_of row bpos in
      if not (has_null k) then
        Hashtbl.replace index k (row :: Option.value (Hashtbl.find_opt index k) ~default:[]))
    build;
  let out = ref [] in
  (* matched pairs, so a high fan-out probe row still polls the deadline *)
  let pairs = ref 0 in
  Table.iteri
    (fun i prow ->
      if i mod batch = 0 then tick ();
      let k = key_of prow ppos in
      if not (has_null k) then
        match Hashtbl.find_opt index k with
        | None -> ()
        | Some matches ->
            List.iter
              (fun brow ->
                incr pairs;
                if !pairs mod batch = 0 then tick ();
                let row = Array.append prow brow in
                if List.for_all (Expr.eval out_schema row) residual then
                  out := row :: !out)
              matches)
    probe;
  Table.create ~name:"join" ~schema:out_schema (Array.of_list (List.rev !out))

(* Join all inputs of one connected component; returns the result table
   (pruned to [keep] ∪ pending-predicate columns). *)
let join_component ?deadline (frag : Fragment.t) (inputs : Fragment.input list) keep =
  let sub = Fragment.restrict frag inputs in
  let tables =
    List.map
      (fun i ->
        ( i.Fragment.provides,
          Executor.filter_input ?deadline i |> fun t -> prune t sub.Fragment.preds keep ))
      inputs
  in
  let preds = ref sub.Fragment.preds in
  let tabs = ref tables in
  let applicable aliases =
    List.partition
      (fun p -> List.for_all (fun r -> List.mem r aliases) (Expr.rels_of_pred p))
      !preds
  in
  while List.length !tabs > 1 do
    (* choose the connected pair with the smallest size product *)
    let best = ref None in
    List.iteri
      (fun ai (aal, (at : Table.t)) ->
        List.iteri
          (fun bi (bal, (bt : Table.t)) ->
            if ai < bi then begin
              let connected =
                List.exists
                  (fun p ->
                    let rels = Expr.rels_of_pred p in
                    List.exists (fun r -> List.mem r aal) rels
                    && List.exists (fun r -> List.mem r bal) rels)
                  !preds
              in
              if connected then begin
                let sz =
                  float_of_int (Table.n_rows at) *. float_of_int (Table.n_rows bt)
                in
                match !best with
                | Some (_, _, s) when s <= sz -> ()
                | _ -> best := Some (ai, bi, sz)
              end
            end)
          !tabs)
      !tabs;
    match !best with
    | None ->
        (* should not happen inside a connected component *)
        invalid_arg "Naive.join_component: disconnected component"
    | Some (ai, bi, _) ->
        let aal, at = List.nth !tabs ai in
        let bal, bt = List.nth !tabs bi in
        let merged_aliases = aal @ bal in
        let here, later = applicable merged_aliases in
        let joined = hash_join ?deadline ~build:at ~probe:bt here in
        preds := later;
        let pruned = prune joined later keep in
        tabs :=
          (merged_aliases, pruned) :: List.filteri (fun i _ -> i <> ai && i <> bi) !tabs
  done;
  snd (List.hd !tabs)

let rows ?deadline (frag : Fragment.t) =
  let keep =
    match frag.Fragment.output with
    | [] ->
        (* keep everything: every column of every input *)
        List.concat_map
          (fun (i : Fragment.input) ->
            Array.to_list i.Fragment.table.Table.schema
            |> List.map (fun (c : Schema.column) ->
                   { Expr.rel = c.Schema.rel; name = c.Schema.name }))
          frag.Fragment.inputs
    | out -> out
  in
  let components =
    Fragment.connected_components frag
    |> List.map (fun comp -> join_component ?deadline frag comp keep)
  in
  let merged = Executor.cartesian ~name:"naive" components in
  match frag.Fragment.output with
  | [] -> merged
  | out -> Executor.project ~name:"naive" merged out

(* ------------------------------------------------------------------ *)
(* Weighted counting (the oracle's backend)                            *)
(* ------------------------------------------------------------------ *)

(* A weighted relation: rows grouped by their join-relevant columns, each
   group carrying the number of underlying rows it stands for. Joins
   multiply weights; after every join the result is re-grouped on the
   columns still needed. Intermediate sizes are bounded by the number of
   distinct key combinations — never by row multiplicity — so counting an
   explosive join costs O(distinct keys), not O(output rows). *)
type weighted = {
  aliases : string list;
  wschema : Schema.t;
  wrows : (Value.t array * int) array;
}

let weighted_slot : weighted Scratch.slot = Scratch.slot ()

let cols_needed preds (schema : Schema.t) =
  Array.to_list schema
  |> List.filter (fun (c : Schema.column) ->
         List.exists
           (fun p ->
             List.exists
               (fun (r : Expr.colref) ->
                 r.Expr.rel = c.Schema.rel && r.Expr.name = c.Schema.name)
               (Expr.cols_of_pred p))
           preds)

let group_by_needed preds (schema : Schema.t) rows =
  let kept = cols_needed preds schema in
  let positions =
    List.map
      (fun (c : Schema.column) ->
        Schema.find_exn schema ~rel:c.Schema.rel ~name:c.Schema.name)
      kept
  in
  let out_schema = Array.of_list kept in
  let groups : (Value.t list, int) Hashtbl.t = Hashtbl.create 1024 in
  Seq.iter
    (fun (row, w) ->
      let key = List.map (fun p -> row.(p)) positions in
      Hashtbl.replace groups key
        (add_sat w (Option.value (Hashtbl.find_opt groups key) ~default:0)))
    rows;
  let grouped =
    Hashtbl.fold (fun key w acc -> (Array.of_list key, w) :: acc) groups []
  in
  (out_schema, Array.of_list grouped)

let weighted_of_input ?deadline preds (i : Fragment.input) =
  let filtered = Executor.filter_input ?deadline i in
  (* the grouping depends only on which of the input's columns the subset's
     predicates touch: cache per column-set signature *)
  let kept_sig =
    cols_needed preds filtered.Table.schema
    |> List.map Schema.column_id |> String.concat ","
  in
  Scratch.find_or_add i.Fragment.scratch weighted_slot ("w:" ^ kept_sig)
    (fun () ->
      let wschema, wrows =
        group_by_needed preds filtered.Table.schema
          (Seq.map (fun r -> (r, 1)) (Table.to_seq filtered))
      in
      { aliases = i.Fragment.provides; wschema; wrows })

let weighted_join preds_here preds_later (a : weighted) (b : weighted) =
  let out_schema_full = Schema.concat a.wschema b.wschema in
  let is_left (c : Expr.colref) = Schema.mem a.wschema ~rel:c.Expr.rel ~name:c.Expr.name in
  let equi, residual =
    List.partition_map
      (fun p ->
        match Expr.join_sides p with
        | Some (x, y) when is_left x -> Either.Left (x, y)
        | Some (x, y) when is_left y -> Either.Left (y, x)
        | _ -> Either.Right p)
      preds_here
  in
  let apos =
    List.map
      (fun ((c : Expr.colref), _) ->
        Schema.find_exn a.wschema ~rel:c.Expr.rel ~name:c.Expr.name)
      equi
  in
  let bpos =
    List.map
      (fun (_, (c : Expr.colref)) ->
        Schema.find_exn b.wschema ~rel:c.Expr.rel ~name:c.Expr.name)
      equi
  in
  let index : (Value.t list, (Value.t array * int) list) Hashtbl.t = Hashtbl.create 1024 in
  Array.iter
    (fun ((row, _) as entry) ->
      let k = List.map (fun p -> row.(p)) apos in
      if not (List.exists Value.is_null k) then
        Hashtbl.replace index k (entry :: Option.value (Hashtbl.find_opt index k) ~default:[]))
    a.wrows;
  let joined =
    Array.to_seq b.wrows
    |> Seq.concat_map (fun (brow, bw) ->
           let k = List.map (fun p -> brow.(p)) bpos in
           if List.exists Value.is_null k then Seq.empty
           else
             match Hashtbl.find_opt index k with
             | None -> Seq.empty
             | Some entries ->
                 List.to_seq entries
                 |> Seq.filter_map (fun (arow, aw) ->
                        let row = Array.append arow brow in
                        if List.for_all (Expr.eval out_schema_full row) residual then
                          Some (row, mul_sat aw bw)
                        else None))
  in
  let wschema, wrows = group_by_needed preds_later out_schema_full joined in
  { aliases = a.aliases @ b.aliases; wschema; wrows }

type cache = (string, weighted) Hashtbl.t

let make_cache () : cache = Hashtbl.create 4096

(* logical identity of an intermediate weighted relation: the restricted
   fragment it joins plus the grouping signature it was collapsed to *)
let weighted_key (frag : Fragment.t) (inputs : Fragment.input list) aliases later =
  let members =
    List.filter
      (fun i -> List.exists (fun a -> List.mem a aliases) i.Fragment.provides)
      inputs
  in
  let sub = Fragment.restrict frag members in
  Fragment.key sub
  ^ " @@ "
  ^ (List.sort compare (List.concat_map Expr.cols_of_pred later |> List.map (fun (c : Expr.colref) -> c.Expr.rel ^ "." ^ c.Expr.name))
     |> String.concat ",")

let count_component ?deadline ?cache (frag : Fragment.t) (inputs : Fragment.input list) =
  let sub = Fragment.restrict frag inputs in
  let all_preds = sub.Fragment.preds in
  let tabs = ref (List.map (fun i -> weighted_of_input ?deadline all_preds i) inputs) in
  let preds = ref all_preds in
  let applicable aliases =
    List.partition
      (fun p -> List.for_all (fun r -> List.mem r aliases) (Expr.rels_of_pred p))
      !preds
  in
  while List.length !tabs > 1 do
    (match deadline with
    | Some d when Qs_util.Timer.now () > d -> raise Executor.Timeout
    | _ -> ());
    let best = ref None in
    List.iteri
      (fun ai a ->
        List.iteri
          (fun bi b ->
            if ai < bi then begin
              let connected =
                List.exists
                  (fun p ->
                    let rels = Expr.rels_of_pred p in
                    List.exists (fun r -> List.mem r a.aliases) rels
                    && List.exists (fun r -> List.mem r b.aliases) rels)
                  !preds
              in
              if connected then begin
                let sz = mul_sat (Array.length a.wrows) (Array.length b.wrows) in
                match !best with
                | Some (_, _, s) when s <= sz -> ()
                | _ -> best := Some (ai, bi, sz)
              end
            end)
          !tabs)
      !tabs;
    match !best with
    | None -> invalid_arg "Naive.count_component: disconnected component"
    | Some (ai, bi, _) ->
        let a = List.nth !tabs ai and b = List.nth !tabs bi in
        let merged = a.aliases @ b.aliases in
        let here, later = applicable merged in
        let joined =
          match cache with
          | None -> weighted_join here later a b
          | Some c -> (
              let key = weighted_key frag inputs merged later in
              match Hashtbl.find_opt c key with
              | Some w -> w
              | None ->
                  let w = weighted_join here later a b in
                  Hashtbl.replace c key w;
                  w)
        in
        preds := later;
        tabs := joined :: List.filteri (fun i _ -> i <> ai && i <> bi) !tabs
  done;
  Array.fold_left (fun acc (_, w) -> add_sat acc w) 0 (List.hd !tabs).wrows

let count ?deadline ?cache (frag : Fragment.t) =
  Fragment.connected_components frag
  |> List.fold_left
       (fun acc comp -> mul_sat acc (count_component ?deadline ?cache frag comp))
       1
