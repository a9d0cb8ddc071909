module Physical = Qs_plan.Physical
module Table = Qs_storage.Table
module Schema = Qs_storage.Schema
module Value = Qs_storage.Value
module Chunk = Qs_storage.Chunk
module Columnar = Qs_storage.Columnar
module Index = Qs_storage.Index
module Fragment = Qs_stats.Fragment
module Expr = Qs_query.Expr
module Scratch = Qs_util.Scratch
module Cancel = Qs_util.Cancel
module Timer = Qs_util.Timer
module Span = Qs_util.Span

exception Timeout

let default_row_limit = 2_000_000

type stats = (int, int) Hashtbl.t

(* Observability counters (cumulative, reset around experiments): how
   many intermediate tables the engine materialized, and how many chunks
   were filtered through the vectorized columnar kernels rather than
   row-at-a-time predicate evaluation. *)
let intermediates = Atomic.make 0
let vectorized_chunk_count = Atomic.make 0

let reset_counters () =
  Atomic.set intermediates 0;
  Atomic.set vectorized_chunk_count 0

let intermediate_tables () = Atomic.get intermediates
let partition_reuses () = 0
let vectorized_chunks () = Atomic.get vectorized_chunk_count

(* The intermediate count also feeds the ambient per-query flight record
   (serving telemetry), when one is installed on this domain. *)
let built_intermediate () =
  Atomic.incr intermediates;
  Qs_obs.Flight.on_intermediate_table ()

let check_deadline = function
  | Some d when Timer.now () > d -> raise Timeout
  | _ -> ()

(* Deadline and cancellation share the same polling points: [tick]
   raises [Cancel.Cancelled] or [Timeout] at batch boundaries, so a
   served query unwinds within one batch of either signal. *)
let tick deadline cancel () =
  Cancel.check cancel;
  check_deadline deadline

(* Deadline checks are amortized over batches of rows. *)
let batch = 16384

let table_slot : Table.t Scratch.slot = Scratch.slot ()

let filters_key filters =
  String.concat " & " (List.sort compare (List.map Expr.to_string filters))

(* --- vectorized predicate evaluation ----------------------------------- *)

(* Selection vectors: a filter over a chunk produces the strictly
   increasing array of surviving row ordinals instead of a materialized
   row copy. [None] stands for the dense vector (every row live) — the
   contract downstream kernels rely on: a [None] selvec means ordinals
   [0 .. n_rows-1] exactly, never "unknown". *)

let filter_ordinals n sel keep =
  match sel with
  | None ->
      let out = Array.make n 0 in
      let k = ref 0 in
      for i = 0 to n - 1 do
        if keep i then begin
          out.(!k) <- i;
          incr k
        end
      done;
      Array.sub out 0 !k
  | Some sel ->
      let out = Array.make (Array.length sel) 0 in
      let k = ref 0 in
      Array.iter
        (fun i ->
          if keep i then begin
            out.(!k) <- i;
            incr k
          end)
        sel;
      Array.sub out 0 !k

(* Compilation of a predicate to columnar kernel invocations: a
   [col <op> const] comparison (either orientation), its Between
   expansion, or IS [NOT] NULL on a plain column. Everything else —
   arithmetic scalars, LIKE, IN, OR — stays on the row fallback. *)
type vec_pred =
  | VCmp of int * Columnar.op * Value.t
  | VNull of int * bool

let vec_op = function
  | Expr.Lt -> Columnar.Lt
  | Expr.Le -> Columnar.Le
  | Expr.Gt -> Columnar.Gt
  | Expr.Ge -> Columnar.Ge
  | Expr.Eq -> Columnar.Eq
  | Expr.Ne -> Columnar.Ne

(* [const <op> col] reads as [col <flipped op> const] *)
let flip_op = function
  | Columnar.Lt -> Columnar.Gt
  | Columnar.Le -> Columnar.Ge
  | Columnar.Gt -> Columnar.Lt
  | Columnar.Ge -> Columnar.Le
  | (Columnar.Eq | Columnar.Ne) as o -> o

let compile_vec schema (p : Expr.pred) =
  let pos (c : Expr.colref) =
    Schema.find_exn schema ~rel:c.Expr.rel ~name:c.Expr.name
  in
  match p with
  | Expr.Cmp (op, Expr.Col c, Expr.Const v) -> Some [ VCmp (pos c, vec_op op, v) ]
  | Expr.Cmp (op, Expr.Const v, Expr.Col c) ->
      Some [ VCmp (pos c, flip_op (vec_op op), v) ]
  | Expr.Between (Expr.Col c, lo, hi) ->
      let j = pos c in
      Some [ VCmp (j, Columnar.Ge, lo); VCmp (j, Columnar.Le, hi) ]
  | Expr.Is_null (Expr.Col c) -> Some [ VNull (pos c, true) ]
  | Expr.Not_null (Expr.Col c) -> Some [ VNull (pos c, false) ]
  | _ -> None

(* Selection vector of one chunk under a non-empty conjunction.
   Columnar chunks run every compilable predicate through the batch
   kernels (each narrowing the vector); predicates with no kernel — or
   whose kernel declines the column's representation — fall back to
   row-at-a-time evaluation ([Expr.compile]d once per chunk) over the
   survivors. A partially applied
   kernel chain (e.g. the Ge half of a Between on a generic column) is
   sound: kernels only remove rows the full predicate also rejects.
   Row chunks evaluate row-at-a-time directly. Either way the result is
   ordinals, not copied rows. *)
let chunk_selvec ?deadline ?cancel schema filters (chunk : Chunk.t) =
  let tick = tick deadline cancel in
  let n = Chunk.n_rows chunk in
  let row_fallback row_at sel preds =
    let holds = Expr.compile_all schema preds in
    let keep i =
      if i mod batch = 0 then tick ();
      holds (row_at i)
    in
    filter_ordinals n sel keep
  in
  match Chunk.columnar chunk with
  | Some col ->
      let sel = ref None in
      let residual = ref [] in
      let vectorized = ref false in
      List.iter
        (fun p ->
          let applied =
            match compile_vec schema p with
            | None -> false
            | Some vps ->
                List.for_all
                  (fun vp ->
                    let r =
                      match vp with
                      | VCmp (j, op, v) ->
                          Columnar.eval_cmp col ~col:j op v ~sel:!sel
                      | VNull (j, w) ->
                          Columnar.eval_null col ~col:j ~want_null:w ~sel:!sel
                    in
                    match r with
                    | Some s ->
                        sel := Some s;
                        true
                    | None -> false)
                  vps
          in
          if applied then vectorized := true else residual := p :: !residual)
        filters;
      if !vectorized then Atomic.incr vectorized_chunk_count;
      let sel =
        match List.rev !residual with
        | [] -> Option.value !sel ~default:(Array.init n Fun.id)
        | preds ->
            (* decode just the survivors, and of each just the columns
               the residual reads, into one buffer row (the compiled
               test keeps no reference to it); the other slots stay
               NULL and are never read *)
            let read =
              List.concat_map Expr.cols_of_pred preds
              |> List.filter_map (fun (c : Expr.colref) ->
                     Schema.find schema ~rel:c.Expr.rel ~name:c.Expr.name)
              |> List.sort_uniq Int.compare |> Array.of_list
            in
            let buf = Array.make (Schema.arity schema) Value.Null in
            let row_at i =
              Array.iter (fun j -> buf.(j) <- Columnar.get col ~row:i ~col:j) read;
              buf
            in
            row_fallback row_at !sel preds
      in
      tick ();
      sel
  | None ->
      let rows = Chunk.rows chunk in
      row_fallback (fun i -> rows.(i)) None filters

(* The survivors [sel] ([None]: every row) of one chunk, cut to the
   columns at [positions] (in their order) when given, as a dense chunk
   of the input's own layout. A columnar chunk is projected first,
   which shares the kept columns, then gathered; a row chunk gathers
   its survivors first and copies only their kept cells. *)
let select_chunk ?positions sel (chunk : Chunk.t) =
  let sel = match sel with Some s when Array.length s = Chunk.n_rows chunk -> None | s -> s in
  match (Chunk.columnar chunk, sel, positions) with
  | _, None, None -> chunk
  | Some col, sel, positions -> (
      let col = Option.fold ~none:col ~some:(Columnar.project col) positions in
      match sel with
      | Some s -> Chunk.of_columnar (Columnar.take col s)
      | None -> Chunk.of_columnar col)
  | None, sel, positions ->
      let rows = Chunk.rows chunk in
      let cut =
        match positions with
        | None -> Fun.id
        | Some ps ->
            let pos = Array.of_list ps in
            fun row -> Array.map (fun p -> row.(p)) pos
      in
      Chunk.of_rows
        (match sel with
        | Some s -> Array.map (fun i -> cut rows.(i)) s
        | None -> Array.map cut rows)

(* Chunked scan+filter (+ projection) through the chunk walker, one
   pinned frame at a time over a spilled table: each chunk's survivors,
   cut to [positions] when given, in the input chunk's layout. A
   filtered scan counts as an intermediate table. *)
let scan_table ?deadline ?cancel ?positions (tbl : Table.t) filters =
  let schema = tbl.Table.schema in
  let out = ref [] in
  Table.iter_chunk_data
    (fun _ chunk ->
      let sel =
        match filters with
        | [] -> None
        | filters -> Some (chunk_selvec ?deadline ?cancel schema filters chunk)
      in
      out := select_chunk ?positions sel chunk :: !out)
    tbl;
  if filters <> [] then built_intermediate ();
  let schema =
    Option.fold ~none:schema
      ~some:(fun ps -> Array.of_list (List.map (fun p -> schema.(p)) ps))
      positions
  in
  Table.of_chunk_data ~inputs:[ tbl ] ~name:tbl.Table.name ~schema (List.rev !out)

let filter_table ?deadline ?cancel (tbl : Table.t) filters =
  match filters with [] -> tbl | filters -> scan_table ?deadline ?cancel tbl filters

let filter_input ?deadline ?cancel ?positions (input : Fragment.input) =
  let tbl = input.Fragment.table in
  let positions =
    match positions with
    | Some ps when ps = List.init (Schema.arity tbl.Table.schema) Fun.id -> None
    | ps -> ps
  in
  match (input.Fragment.filters, positions) with
  | [], None -> tbl
  | filters, positions ->
      (* tables are immutable, so the scanned result is cached on the
         input record — re-optimization re-scans the same inputs many
         times. The cache key carries the predicate list and the kept
         positions: an input re-planned with different pushed-down
         filters, or scanned under another projection, must not reuse
         rows scanned under the old ones. A cancelled scan unwinds out
         of [find_or_add] before publishing, leaving the slot empty —
         the next query rescans from scratch. *)
      let key =
        match positions with
        | None -> "filtered:" ^ filters_key filters
        | Some ps ->
            "filtered:" ^ filters_key filters ^ " | kept:"
            ^ String.concat "," (List.map string_of_int ps)
      in
      Scratch.find_or_add input.Fragment.scratch table_slot key (fun () ->
          scan_table ?deadline ?cancel ?positions tbl filters)

(* Join-key extraction: positions of the equi-join columns on each side,
   plus the residual predicates evaluated on the concatenated row. *)
let split_join_preds (lschema : Schema.t) preds =
  let is_left (c : Expr.colref) = Schema.mem lschema ~rel:c.Expr.rel ~name:c.Expr.name in
  List.partition_map
    (fun p ->
      match Expr.join_sides p with
      | Some (a, b) when is_left a -> Either.Left (a, b)
      | Some (a, b) when is_left b -> Either.Left (b, a)
      | _ -> Either.Right p)
    preds

let key_positions schema cols =
  List.map (fun (c : Expr.colref) -> Schema.find_exn schema ~rel:c.Expr.rel ~name:c.Expr.name) cols

let has_null = List.exists Value.is_null

(* Span bridging: the label of the operator span emitted per executed
   plan node. Exactly one arm per [Physical] operator constructor —
   tools/check.sh lints that none is missing (stats-completeness,
   extended to spans). *)
let span_label (p : Physical.t) =
  match p.Physical.node with
  | Physical.Scan i -> "scan:" ^ i.Fragment.id
  | Physical.Join { method_ = Physical.Hash; _ } -> "hash-join"
  | Physical.Join { method_ = Physical.Index_nl; _ } -> "index-nl-join"
  | Physical.Join { method_ = Physical.Nl; _ } -> "nl-join"

(* [node] argument tying a pipeline or breaker span to its plan node, so
   EXPLAIN ANALYZE can find the timings of one run in a shared tracer *)
let node_args (p : Physical.t) = [ ("node", string_of_int p.Physical.id) ]

(* One zero-duration [operator] marker per plan node: wall-clock lives in
   the pipeline / breaker spans, since fused operators have no time of
   their own. *)
let operator_markers spans ~t0 plan stats =
  List.iter
    (fun (n : Physical.t) ->
      Span.add spans Span.Operator (span_label n) ~start:t0 ~dur:0.0
        ~args:
          (node_args n
          @ [
              ("est_rows", Printf.sprintf "%.0f" n.Physical.est_rows);
              ("actual_rows", string_of_int (Hashtbl.find stats n.Physical.id));
            ]))
    (Physical.nodes plan)

(* ---------------------------------------------------------------------- *)
(* Morsel-driven pipelined engine                                          *)
(* ---------------------------------------------------------------------- *)

(* A morsel: one chunk (in whichever layout its table stores) plus a
   selection vector of the ordinals that survived the fused filters.
   [m_sel = None] is the dense vector — ordinals [0 .. n_rows-1]
   exactly; a full selvec is normalized to [None] at the morsel
   boundary, so kernels may assume a [Some] vector is a strict subset.
   Empty morsels are never emitted. Passing (chunk, selvec) pairs
   instead of copied row arrays is what lets scan→filter→probe run
   without materializing anything between fused operators. *)
type morsel = { m_chunk : Chunk.t; m_sel : int array option }

let morsel_of ~chunk ~sel =
  match sel with
  | Some s when Array.length s = Chunk.n_rows chunk ->
      { m_chunk = chunk; m_sel = None }
  | _ -> { m_chunk = chunk; m_sel = sel }

(* A scan's morsel of one chunk under its selection, cut to the columns
   at [positions] when given. Projecting a columnar chunk shares the
   kept columns, so the selection stays a vector over it; a row chunk
   copies only the kept cells of its survivors, into a dense morsel
   (scans of resident tables hand their rows on uncut instead, see
   [pstream]). *)
let scan_morsel ?positions chunk sel =
  match (positions, Chunk.columnar chunk) with
  | None, _ -> morsel_of ~chunk ~sel
  | Some ps, Some col -> morsel_of ~chunk:(Chunk.of_columnar (Columnar.project col ps)) ~sel
  | Some _, None -> morsel_of ~chunk:(select_chunk ?positions sel chunk) ~sel:None

let morsel_count m =
  match m.m_sel with
  | Some s -> Array.length s
  | None -> Chunk.n_rows m.m_chunk

(* visit the surviving ordinals in order *)
let morsel_ordinals m f =
  match m.m_sel with
  | None ->
      for i = 0 to Chunk.n_rows m.m_chunk - 1 do
        f i
      done
  | Some s -> Array.iter f s

(* Ordinal-indexed row fetch. A columnar chunk decodes a row only when
   its ordinal is fetched, and each at most once per morsel: consumers
   fetch in ordinal order and fetch an ordinal again only right after
   (an index-NL outer row, once per inner match), so the last row
   decoded is the memo. Rows a consumer never touches (a probe with no
   match, an outer row whose inner lookups all fail) are never decoded. *)
let morsel_fetch m =
  match Chunk.columnar m.m_chunk with
  | None ->
      let rows = Chunk.rows m.m_chunk in
      fun i -> rows.(i)
  | Some col ->
      let last = ref (-1) and row = ref [||] in
      fun i ->
        if i <> !last then begin
          row := Columnar.row col i;
          last := i
        end;
        !row

(* Ordinal-indexed single-column accessor — the batch path for join
   keys: a columnar chunk decodes the whole key column at once (one
   sweep over the unboxed array) when the selvec is dense enough to
   amortize it, and falls back to point gets on highly selective
   morsels. *)
let morsel_col m p =
  match Chunk.columnar m.m_chunk with
  | None ->
      let rows = Chunk.rows m.m_chunk in
      fun i -> rows.(i).(p)
  | Some col ->
      let dense_enough =
        match m.m_sel with
        | None -> true
        | Some s -> 4 * Array.length s >= Columnar.n_rows col
      in
      if dense_enough then begin
        let vs = Columnar.column_values col p in
        fun i -> vs.(i)
      end
      else fun i -> Columnar.get col ~row:i ~col:p

(* dense array of the surviving rows (shared with the chunk when the
   morsel is dense and row-major; a sparse columnar morsel decodes only
   its survivors) *)
let morsel_rows m =
  match (m.m_sel, Chunk.columnar m.m_chunk) with
  | None, _ -> Chunk.rows m.m_chunk
  | Some s, Some col -> Array.map (Columnar.row col) s
  | Some s, None ->
      let rows = Chunk.rows m.m_chunk in
      Array.map (fun i -> rows.(i)) s

(* A stream of chunk-sized morsels. [ps_iter] drives the whole operator
   subtree synchronously: each morsel handed to the consumer is
   non-empty. A morsel sourced from a spilled table is exactly one
   pinned buffer-pool frame, released before the next is pinned, so a
   pipeline touches O(1) frames no matter how large its inputs are. *)
type pstream = {
  ps_schema : Schema.t;
  ps_map : int array option;
      (** [Some m]: the rows this stream hands out are wider than
          [ps_schema], and its column [k] is at row position [m.(k)];
          [None]: row positions are schema positions *)
  ps_iter : (morsel -> unit) -> unit;
}

(* stream column [k]'s position in the rows a stream with map [map]
   hands out *)
let row_pos map k = match map with None -> k | Some m -> m.(k)

(* A gather map over the positions of two streams' schemas, as one over
   the rows they hand out: this is how a parent reads a resident scan's
   shared rows without the scan copying the kept cells. *)
let through lmap rmap src =
  Array.map (fun s -> if s >= 0 then row_pos lmap s else -1 - row_pos rmap (-1 - s)) src

(* --- lean join outputs -------------------------------------------------- *)

(* What a stream's parent reads of it. [All]: the concatenation of the
   leaf schemas. [Keep cols]: the pruned concatenation, i.e. the leaf
   columns named in [cols], in leaf order. [Exactly cols]: the root's
   projection, in its order, duplicates already dropped. A scan emits
   morsels cut to its want: a column-major (spilled) frame shares the
   kept columns, so every row later fetched decodes only those; a row
   chunk hands on the kept cells of its survivors. A join gathers only
   the wanted columns of each (probe, build) pair. *)
type want = All | Keep of Expr.colref list | Exactly of Expr.colref list

(* the want of a join's children: what its parent reads plus the
   columns the join reads itself *)
let widen want extra =
  match want with All -> All | Keep cols | Exactly cols -> Keep (cols @ extra)

let dedup_cols cols =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun (c : Expr.colref) ->
      if Hashtbl.mem seen (c.Expr.rel, c.Expr.name) then false
      else (
        Hashtbl.replace seen (c.Expr.rel, c.Expr.name) ();
        true))
    cols

(* Gather maps over a (left row, right row) pair: entry [k] is [i >= 0]
   for [left.(i)], or [-1 - i] for [right.(i)]. A column both sides
   carry resolves to the left one, as in the concatenated schema. *)
let pair_source lschema rschema (c : Expr.colref) =
  match Schema.find lschema ~rel:c.Expr.rel ~name:c.Expr.name with
  | Some i -> Some i
  | None ->
      Option.map (fun i -> -1 - i) (Schema.find rschema ~rel:c.Expr.rel ~name:c.Expr.name)

let source_column lschema rschema s = if s >= 0 then lschema.(s) else rschema.(-1 - s)

let gather_into dst src l r =
  for k = 0 to Array.length src - 1 do
    let s = src.(k) in
    dst.(k) <- (if s >= 0 then l.(s) else r.(-1 - s))
  done

let gather src l r =
  let out = Array.make (Array.length src) Value.Null in
  gather_into out src l r;
  out

(* The output schema of a join over children with these schemas, and
   its gather map. *)
let pair_output want lschema rschema =
  let cat = Schema.concat lschema rschema in
  let all = List.init (Schema.arity cat) Fun.id in
  let positions =
    match want with
    | All -> all
    | Keep cols ->
        List.filter
          (fun i ->
            List.exists
              (fun (c : Expr.colref) ->
                cat.(i).Schema.rel = c.Expr.rel && cat.(i).Schema.name = c.Expr.name)
              cols)
          all
    | Exactly cols ->
        List.map
          (fun (c : Expr.colref) -> Schema.find_exn cat ~rel:c.Expr.rel ~name:c.Expr.name)
          cols
  in
  let nl = Schema.arity lschema in
  ( Array.of_list (List.map (fun i -> cat.(i)) positions),
    Array.of_list (List.map (fun i -> if i < nl then i else nl - 1 - i) positions) )

(* A join's residual conjunction over a (left row, right row) pair,
   compiled against a row of just the columns it reads. That row is one
   buffer, refilled for every pair: a run drives its streams
   synchronously on one domain, and the compiled test keeps no
   reference to it. A column neither side carries is left out of the
   row, so the test raises on it exactly as the interpreter would. *)
let pair_filter ?lmap ?rmap lschema rschema = function
  | [] -> fun _ _ -> true
  | preds ->
      let src =
        List.concat_map Expr.cols_of_pred preds
        |> dedup_cols
        |> List.filter_map (pair_source lschema rschema)
        |> Array.of_list
      in
      let schema = Array.map (source_column lschema rschema) src in
      let holds = Expr.compile_all schema preds in
      let src = through lmap rmap src in
      let buf = Array.make (Array.length src) Value.Null in
      fun l r ->
        gather_into buf src l r;
        holds buf

(* Build-side tables. A one-column key hashes the [Value.t] itself, a
   wider one the list of values. Both keep exactly the equality of the
   polymorphic table {!Naive}'s reference join uses on list keys
   ([compare = 0]):
   [Int 1] never meets [Float 1.0], NaN meets NaN and [-0.0] meets
   [0.0]. NULL keys never reach either table. *)
module Value_tbl = Hashtbl.Make (struct
  type t = Value.t

  let equal a b =
    match (a, b) with
    | Value.Int x, Value.Int y -> Int.equal x y
    | Value.Float x, Value.Float y -> Float.compare x y = 0
    | Value.Str x, Value.Str y -> String.equal x y
    | Value.Bool x, Value.Bool y -> Bool.equal x y
    | Value.Null, Value.Null -> true
    | _ -> false

  let hash = Hashtbl.hash
end)

module Key_tbl = Hashtbl.Make (struct
  type t = Value.t list

  let equal a b = compare a b = 0
  let hash = Hashtbl.hash
end)

(* per-ordinal key readers of a morsel, one per key shape *)
let value_key m = function
  | [ p ] -> morsel_col m p
  | _ -> invalid_arg "Executor.value_key: one key column expected"

let list_key m positions =
  let cols = List.map (morsel_col m) positions in
  let rec at i = function [] -> [] | g :: rest -> g i :: at i rest in
  fun i -> at i cols

(* The positions a scan keeps of its table: [Some] the wanted columns,
   in table order, when they are fewer than the table's; [None] keeps
   the whole schema. *)
let scan_keep want (tbl : Table.t) =
  match want with
  | Keep cols ->
      let wanted (c : Schema.column) =
        List.exists
          (fun (w : Expr.colref) -> c.Schema.rel = w.Expr.rel && c.Schema.name = w.Expr.name)
          cols
      in
      let arity = Schema.arity tbl.Table.schema in
      let positions = List.filter (fun i -> wanted tbl.Table.schema.(i)) (List.init arity Fun.id) in
      if List.length positions = arity then None else Some positions
  | _ -> None

let run_pipelined ?deadline ?cancel ~row_limit ?spans ~want plan =
  let stats : stats = Hashtbl.create 16 in
  (* every node id present even when nothing streams through it *)
  List.iter
    (fun (n : Physical.t) -> Hashtbl.replace stats n.Physical.id 0)
    (Physical.nodes plan);
  let tick = tick deadline cancel in
  let limit = row_limit in
  let bump (p : Physical.t) n =
    Hashtbl.replace stats p.Physical.id
      (n + Option.value (Hashtbl.find_opt stats p.Physical.id) ~default:0)
  in
  let bid (p : Physical.t) = string_of_int p.Physical.id in
  let emit_chunks p emit out =
    match out with
    | [] -> ()
    | l ->
        let rows = Array.of_list (List.rev l) in
        bump p (Array.length rows);
        (* operator outputs are freshly assembled rows: a dense
           row-major morsel *)
        emit { m_chunk = Chunk.of_rows rows; m_sel = None }
  in
  (* The one hash build/probe loop, generic in the key: [key m pos]
     reads the key of each ordinal of morsel [m] at key positions
     [pos], and [null k] holds when the key cannot join. The build side
     is the pipeline breaker, the probe side streams morsel by morsel. *)
  let hash_iter (type k) (module H : Hashtbl.S with type key = k)
      ~(key : morsel -> int list -> int -> k) ~(null : k -> bool) p ~bpos ~ppos
      ~src ~keep bstream prstream emit =
    let index : Value.t array list H.t = H.create 1024 in
    Span.span spans Span.Breaker ~args:(node_args p) ("hash-build:" ^ bid p)
      (fun () ->
        bstream.ps_iter (fun m ->
            (* batch build: key columns decoded column-at-a-time per
               morsel, rows fetched lazily only for live keys *)
            let key_at = key m bpos in
            let fetch = morsel_fetch m in
            morsel_ordinals m (fun i ->
                let k = key_at i in
                if not (null k) then
                  H.replace index k
                    (fetch i :: Option.value (H.find_opt index k) ~default:[]))));
    (* [emitted] counts matched pairs before the residual check; the
       row limit is tested against it each time a row is kept *)
    let emitted = ref 0 in
    prstream.ps_iter (fun m ->
        let key_at = key m ppos in
        let fetch = morsel_fetch m in
        let out = ref [] in
        let rec pairs prow = function
          | [] -> ()
          | brow :: rest ->
              incr emitted;
              if !emitted mod batch = 0 then tick ();
              if keep prow brow then begin
                out := gather src prow brow :: !out;
                if !emitted > limit then raise Timeout
              end;
              pairs prow rest
        in
        morsel_ordinals m (fun i ->
            let k = key_at i in
            if not (null k) then
              match H.find_opt index k with
              | None -> ()
              | Some matches -> pairs (fetch i) matches);
        emit_chunks p emit !out)
  in
  let rec stream want (p : Physical.t) : pstream =
    match p.Physical.node with
    | Physical.Scan input ->
        (* fused scan+filter: the selection runs inside the pinned chunk
           walk and produces a selection vector over the chunk — no
           intermediate table and no row copy; columnar chunks go
           through the vectorized kernels. The parent reads only the
           kept columns: a spilled table's column-major frames are cut
           to them (sharing the columns, so a fetched row decodes only
           those), while a resident table's rows, already decoded, are
           handed on shared and uncut, and the parent reads them through
           the stream's map. The deadline / cancel poll sits at the
           morsel boundary, so a cancellation unwinds before the next
           frame is pinned. *)
        let tbl = input.Fragment.table in
        let schema = tbl.Table.schema in
        let filters = input.Fragment.filters in
        let keep = scan_keep want tbl in
        let positions, ps_map =
          match keep with
          | Some ps when not (Table.spilled tbl) -> (None, Some (Array.of_list ps))
          | ps -> (ps, None)
        in
        let out_schema =
          Option.fold ~none:schema
            ~some:(fun ps -> Array.of_list (List.map (fun i -> schema.(i)) ps))
            keep
        in
        {
          ps_schema = out_schema;
          ps_map;
          ps_iter =
            (fun emit ->
              Table.iter_chunk_data
                (fun _ chunk ->
                  tick ();
                  (* the filters read only the columns they test *)
                  let sel =
                    if filters = [] then None
                    else
                      Some (chunk_selvec ?deadline ?cancel schema filters chunk)
                  in
                  match sel with
                  | Some [||] -> ()
                  | _ ->
                      let m = scan_morsel ?positions chunk sel in
                      bump p (morsel_count m);
                      emit m)
                tbl);
        }
    | Physical.Join j -> (
        let preds = j.Physical.preds in
        let pred_cols = List.concat_map Expr.cols_of_pred preds in
        match j.Physical.method_ with
        | Physical.Hash ->
            let child_want = widen want pred_cols in
            let bstream = stream child_want j.Physical.left in
            let prstream = stream child_want j.Physical.right in
            let build_cols, residual = split_join_preds bstream.ps_schema preds in
            let bpos =
              key_positions bstream.ps_schema (List.map fst build_cols)
              |> List.map (row_pos bstream.ps_map)
            in
            let ppos =
              key_positions prstream.ps_schema (List.map snd build_cols)
              |> List.map (row_pos prstream.ps_map)
            in
            let out_schema, src = pair_output want prstream.ps_schema bstream.ps_schema in
            let src = through prstream.ps_map bstream.ps_map src in
            let keep =
              pair_filter ?lmap:prstream.ps_map ?rmap:bstream.ps_map prstream.ps_schema
                bstream.ps_schema residual
            in
            let iter =
              match bpos with
              | [ _ ] ->
                  hash_iter (module Value_tbl) ~key:value_key ~null:Value.is_null
              | _ -> hash_iter (module Key_tbl) ~key:list_key ~null:has_null
            in
            {
              ps_schema = out_schema;
              ps_map = None;
              ps_iter = iter p ~bpos ~ppos ~src ~keep bstream prstream;
            }
        | Physical.Index_nl ->
            let inner_node = j.Physical.right in
            let inner_input =
              match inner_node.Physical.node with
              | Physical.Scan i -> i
              | _ -> invalid_arg "Executor.run: index NL inner must be a scan"
            in
            let index, outer_key, inner_key =
              match j.Physical.index with
              | Some x -> x
              | None -> invalid_arg "Executor.run: index NL without index"
            in
            let ostream = stream (widen want (outer_key :: pred_cols)) j.Physical.left in
            let indexed = Expr.eq (Expr.Col outer_key) (Expr.Col inner_key) in
            let residual =
              List.filter (fun pr -> not (Expr.equal_pred pr indexed)) preds
            in
            let inner_tbl = inner_input.Fragment.table in
            let inner_schema = inner_tbl.Table.schema in
            let inner_filters = inner_input.Fragment.filters in
            let inner_holds = Expr.compile_all inner_schema inner_filters in
            let keep = pair_filter ?lmap:ostream.ps_map ostream.ps_schema inner_schema residual in
            let out_schema, src = pair_output want ostream.ps_schema inner_schema in
            let src = through ostream.ps_map None src in
            (* an inner row is read by its filters, the residual and the
               gather map: a columnar frame decodes only those cells,
               into one buffer refilled per lookup (the filter, the
               residual and the gather keep no reference to it) *)
            let inner_reads =
              let from_pair =
                Array.to_list src
                @ List.filter_map
                    (pair_source ostream.ps_schema inner_schema)
                    (List.concat_map Expr.cols_of_pred residual)
                |> List.filter_map (fun s -> if s < 0 then Some (-1 - s) else None)
              in
              List.concat_map Expr.cols_of_pred inner_filters
              |> List.filter_map (fun (c : Expr.colref) ->
                     Schema.find inner_schema ~rel:c.Expr.rel ~name:c.Expr.name)
              |> List.append from_pair |> List.sort_uniq Int.compare |> Array.of_list
            in
            let buf = Array.make (Schema.arity inner_schema) Value.Null in
            let okpos =
              Schema.find_exn ostream.ps_schema ~rel:outer_key.Expr.rel
                ~name:outer_key.Expr.name
              |> row_pos ostream.ps_map
            in
            {
              ps_schema = out_schema;
              ps_map = None;
              ps_iter =
                (fun emit ->
                  let probes = ref 0 and matched = ref 0 in
                  ostream.ps_iter (fun m ->
                      let okey = morsel_col m okpos in
                      let fetch = morsel_fetch m in
                      let out = ref [] in
                      (* the outer row is fetched only for an inner row
                         that passes the filters: a columnar morsel
                         decodes on the first such match *)
                      let rec lookups i = function
                        | [] -> ()
                        | rid :: rest ->
                            let irow = Table.row_cells inner_tbl rid ~cols:inner_reads ~buf in
                            if inner_holds irow then begin
                              incr matched;
                              let orow = fetch i in
                              if keep orow irow then begin
                                out := gather src orow irow :: !out;
                                if !matched > limit then raise Timeout
                              end
                            end;
                            lookups i rest
                      in
                      morsel_ordinals m (fun i ->
                          incr probes;
                          if !probes mod 1024 = 0 then tick ();
                          let key = okey i in
                          if not (Value.is_null key) then
                            lookups i (Index.lookup index key));
                      (* the inner side is consumed through the index;
                         its stats entry is the rows surviving the
                         lookups plus the input's own filters *)
                      Hashtbl.replace stats inner_node.Physical.id !matched;
                      emit_chunks p emit !out));
            }
        | Physical.Nl ->
            let child_want = widen want pred_cols in
            let ostream = stream child_want j.Physical.left in
            let istream = stream child_want j.Physical.right in
            let keep =
              pair_filter ?lmap:ostream.ps_map ?rmap:istream.ps_map ostream.ps_schema
                istream.ps_schema preds
            in
            let out_schema, src = pair_output want ostream.ps_schema istream.ps_schema in
            let src = through ostream.ps_map istream.ps_map src in
            {
              ps_schema = out_schema;
              ps_map = None;
              ps_iter =
                (fun emit ->
                  (* the inner side is rescanned per outer row: buffer
                     it once (breaker), then stream the outer side *)
                  let buf = ref [] in
                  Span.span spans Span.Breaker ~args:(node_args p) ("nl-inner:" ^ bid p) (fun () ->
                      istream.ps_iter (fun m -> buf := morsel_rows m :: !buf));
                  let inner = Array.concat (List.rev !buf) in
                  let steps = ref 0 and kept = ref 0 in
                  ostream.ps_iter (fun m ->
                      let fetch = morsel_fetch m in
                      let out = ref [] in
                      morsel_ordinals m (fun oi ->
                          let orow = fetch oi in
                          for x = 0 to Array.length inner - 1 do
                            let irow = inner.(x) in
                            incr steps;
                            if !steps mod batch = 0 then tick ();
                            if keep orow irow then begin
                              out := gather src orow irow :: !out;
                              incr kept;
                              if !kept > limit then raise Timeout
                            end
                          done);
                      emit_chunks p emit !out));
            })
  in
  let root = stream want plan in
  (* the root is a join, whose fresh rows are exactly its schema *)
  assert (root.ps_map = None);
  let t0 = if spans <> None then Timer.now () else 0.0 in
  let rev_chunks = ref [] in
  Span.span spans Span.Pipeline ~args:(node_args plan)
    ("pipeline:" ^ span_label plan) (fun () ->
      root.ps_iter (fun m -> rev_chunks := morsel_rows m :: !rev_chunks));
  built_intermediate ();
  let out =
    Table.of_chunks
      ~inputs:(List.map (fun (i : Fragment.input) -> i.Fragment.table) (Physical.leaves plan))
      ~name:"join" ~schema:root.ps_schema (List.rev !rev_chunks)
  in
  if spans <> None then operator_markers spans ~t0 plan stats;
  (out, stats)

let column_positions schema cols =
  List.map
    (fun (c : Expr.colref) -> Schema.find_exn schema ~rel:c.Expr.rel ~name:c.Expr.name)
    cols

let project ?name (tbl : Table.t) cols =
  match dedup_cols cols with
  | [] -> tbl
  | cols ->
      let schema = tbl.Table.schema in
      let name = Option.value name ~default:tbl.Table.name in
      let positions = column_positions schema cols in
      if positions = List.init (Schema.arity schema) Fun.id then
        (* the input already is the projection (a run given it) *)
        Table.with_name tbl name
      else scan_table ~positions (Table.with_name tbl name) []

let run ?deadline ?cancel ?(row_limit = default_row_limit) ?spans
    ?project:(cols = []) plan =
  let cols = dedup_cols cols in
  match plan.Physical.node with
  | Physical.Join _ ->
      let want = match cols with [] -> All | cols -> Exactly cols in
      run_pipelined ?deadline ?cancel ~row_limit ?spans ~want plan
  | Physical.Scan input ->
      (* a bare scan is just the leaf, through the scratch-cached
         [filter_input]: the filter gathers only the projected columns
         of its survivors, in the same pass, so no second copy is
         written and read back *)
      let positions =
        match cols with
        | [] -> None
        | cols -> Some (column_positions input.Fragment.table.Table.schema cols)
      in
      let t0 = if spans <> None then Timer.now () else 0.0 in
      let out =
        Span.span spans Span.Pipeline ~args:(node_args plan)
          ("pipeline:" ^ span_label plan) (fun () ->
            filter_input ?deadline ?cancel ?positions input)
      in
      let stats : stats = Hashtbl.create 1 in
      Hashtbl.replace stats plan.Physical.id (Table.n_rows out);
      if spans <> None then operator_markers spans ~t0 plan stats;
      (out, stats)

let cartesian ~name tables =
  match tables with
  | [] -> invalid_arg "Executor.cartesian: no tables"
  | [ t ] -> Table.with_name t name
  | first :: rest ->
      List.fold_left
        (fun acc t ->
          let schema = Schema.concat acc.Table.schema t.Table.schema in
          let rows = ref [] in
          Table.iter
            (fun a -> Table.iter (fun b -> rows := Array.append a b :: !rows) t)
            acc;
          Table.create ~inputs:[ acc; t ] ~name ~schema (Array.of_list (List.rev !rows)))
        first rest
