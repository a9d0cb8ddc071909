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
   row-at-a-time [Expr.eval] over the survivors. A partially applied
   kernel chain (e.g. the Ge half of a Between on a generic column) is
   sound: kernels only remove rows the full predicate also rejects.
   Row chunks evaluate row-at-a-time directly. Either way the result is
   ordinals, not copied rows. *)
let chunk_selvec ?deadline ?cancel schema filters (chunk : Chunk.t) =
  let tick = tick deadline cancel in
  let n = Chunk.n_rows chunk in
  let row_fallback rows_of sel preds =
    let keep i =
      if i mod batch = 0 then tick ();
      let row = (Lazy.force rows_of).(i) in
      List.for_all (Expr.eval schema row) preds
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
            let rows_of = lazy (Chunk.rows chunk) in
            row_fallback rows_of !sel preds
      in
      tick ();
      sel
  | None ->
      let rows = Chunk.rows chunk in
      row_fallback (lazy rows) None filters

(* Materializing per-chunk filter: gather the survivors into a dense
   chunk of the input's own layout (columnar in, columnar out). *)
let filter_chunk_data ?deadline ?cancel schema filters (chunk : Chunk.t) =
  let sel = chunk_selvec ?deadline ?cancel schema filters chunk in
  if Array.length sel = Chunk.n_rows chunk then chunk
  else
    match Chunk.columnar chunk with
    | Some col -> Chunk.of_columnar (Columnar.take col sel)
    | None ->
        let rows = Chunk.rows chunk in
        Chunk.of_rows (Array.map (fun i -> rows.(i)) sel)

(* Chunked scan+filter through the chunk walker, one pinned frame at a
   time over a spilled table. The output preserves each input chunk's
   layout. *)
let filter_table ?deadline ?cancel (tbl : Table.t) filters =
  match filters with
  | [] -> tbl
  | filters ->
      let schema = tbl.Table.schema in
      let out = ref [] in
      Table.iter_chunk_data
        (fun _ chunk ->
          out := filter_chunk_data ?deadline ?cancel schema filters chunk :: !out)
        tbl;
      built_intermediate ();
      Table.of_chunk_data ~name:tbl.Table.name ~schema (List.rev !out)

let filter_input ?deadline ?cancel (input : Fragment.input) =
  let tbl = input.Fragment.table in
  match input.Fragment.filters with
  | [] -> tbl
  | filters ->
      (* tables are immutable, so the filtered result is cached on the
         input record — re-optimization re-scans the same inputs many
         times. The cache key carries the predicate list: an input
         re-planned with different pushed-down filters must not reuse
         rows filtered under the old ones. A cancelled scan unwinds out
         of [find_or_add] before publishing, leaving the slot empty —
         the next query refilters from scratch. *)
      Scratch.find_or_add input.Fragment.scratch table_slot
        ("filtered:" ^ filters_key filters)
        (fun () -> filter_table ?deadline ?cancel tbl filters)

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

let key_of_row row positions = List.map (fun p -> row.(p)) positions

let has_null = List.exists Value.is_null

(* Sequential hash join over two materialized tables: the kernel [Naive]
   evaluates its reference joins with. *)
let hash_join ?deadline ~(build : Table.t) ~(probe : Table.t) preds =
  let tick () = check_deadline deadline in
  let out_schema = Schema.concat probe.Table.schema build.Table.schema in
  (* orient keys wrt the build side *)
  let build_cols, residual = split_join_preds build.Table.schema preds in
  let bpos = key_positions build.Table.schema (List.map fst build_cols) in
  let ppos = key_positions probe.Table.schema (List.map snd build_cols) in
  let index : (Value.t list, Value.t array list) Hashtbl.t =
    Hashtbl.create (max 16 (Table.n_rows build))
  in
  Table.iteri
    (fun i row ->
      if i mod batch = 0 then tick ();
      let k = key_of_row row bpos in
      if not (has_null k) then
        Hashtbl.replace index k (row :: Option.value (Hashtbl.find_opt index k) ~default:[]))
    build;
  let out = ref [] in
  (* matched pairs, so a high fan-out probe row still polls the deadline *)
  let pairs = ref 0 in
  Table.iteri
    (fun i prow ->
      if i mod batch = 0 then tick ();
      let k = key_of_row prow ppos in
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
  built_intermediate ();
  Table.create ~name:"join" ~schema:out_schema (Array.of_list (List.rev !out))

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

(* Ordinal-indexed row fetch. Columnar chunks decode lazily and only
   once per morsel — consumers that never touch a row (e.g. a probe
   with no matches) never pay the decode. *)
let morsel_fetch m =
  match Chunk.columnar m.m_chunk with
  | None ->
      let rows = Chunk.rows m.m_chunk in
      fun i -> rows.(i)
  | Some col ->
      let rows = lazy (Columnar.to_rows col) in
      fun i -> (Lazy.force rows).(i)

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
   morsel is dense and row-major) *)
let morsel_rows m =
  match m.m_sel with
  | None -> Chunk.rows m.m_chunk
  | Some s ->
      let rows = Chunk.rows m.m_chunk in
      Array.map (fun i -> rows.(i)) s

(* A stream of chunk-sized morsels. [ps_iter] drives the whole operator
   subtree synchronously: each morsel handed to the consumer is
   non-empty. A morsel sourced from a spilled table is exactly one
   pinned buffer-pool frame, released before the next is pinned, so a
   pipeline touches O(1) frames no matter how large its inputs are. *)
type pstream = { ps_schema : Schema.t; ps_iter : (morsel -> unit) -> unit }

let run_pipelined ?deadline ?cancel ~row_limit ?spans plan =
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
  let rec stream (p : Physical.t) : pstream =
    match p.Physical.node with
    | Physical.Scan input ->
        (* fused scan+filter: the selection runs inside the pinned chunk
           walk and produces a selection vector over the chunk — no row
           copy, no intermediate table; columnar chunks go through the
           vectorized kernels. The deadline / cancel poll sits at the
           morsel boundary, so a cancellation unwinds before the next
           frame is pinned. *)
        let tbl = input.Fragment.table in
        let schema = tbl.Table.schema in
        let filters = input.Fragment.filters in
        {
          ps_schema = schema;
          ps_iter =
            (fun emit ->
              Table.iter_chunk_data
                (fun _ chunk ->
                  tick ();
                  let sel =
                    if filters = [] then None
                    else
                      Some (chunk_selvec ?deadline ?cancel schema filters chunk)
                  in
                  match sel with
                  | Some [||] -> ()
                  | _ ->
                      let m = morsel_of ~chunk ~sel in
                      bump p (morsel_count m);
                      emit m)
                tbl);
        }
    | Physical.Join j -> (
        match j.Physical.method_ with
        | Physical.Hash ->
            let bstream = stream j.Physical.left in
            let prstream = stream j.Physical.right in
            let out_schema = Schema.concat prstream.ps_schema bstream.ps_schema in
            let build_cols, residual =
              split_join_preds bstream.ps_schema j.Physical.preds
            in
            let bpos = key_positions bstream.ps_schema (List.map fst build_cols) in
            let ppos = key_positions prstream.ps_schema (List.map snd build_cols) in
            (* the build side is the pipeline breaker, the probe side
               streams morsel by morsel *)
            {
              ps_schema = out_schema;
              ps_iter =
                (fun emit ->
                  let index : (Value.t list, Value.t array list) Hashtbl.t =
                    Hashtbl.create 1024
                  in
                  Span.span spans Span.Breaker ~args:(node_args p) ("hash-build:" ^ bid p)
                    (fun () ->
                      bstream.ps_iter (fun m ->
                          (* batch build: key columns decoded
                             column-at-a-time per morsel, rows
                             fetched lazily only for live keys *)
                          let kcols = List.map (morsel_col m) bpos in
                          let fetch = morsel_fetch m in
                          morsel_ordinals m (fun i ->
                              let k = List.map (fun g -> g i) kcols in
                              if not (has_null k) then
                                Hashtbl.replace index k
                                  (fetch i
                                  :: Option.value (Hashtbl.find_opt index k)
                                       ~default:[]))));
                  (* [emitted] counts matched pairs before the
                     residual check; the row limit is tested
                     against it each time a row is kept *)
                  let emitted = ref 0 in
                  prstream.ps_iter (fun m ->
                      let kcols = List.map (morsel_col m) ppos in
                      let fetch = morsel_fetch m in
                      let out = ref [] in
                      morsel_ordinals m (fun i ->
                          let k = List.map (fun g -> g i) kcols in
                          if not (has_null k) then
                            match Hashtbl.find_opt index k with
                            | None -> ()
                            | Some matches ->
                                let prow = fetch i in
                                List.iter
                                  (fun brow ->
                                    incr emitted;
                                    if !emitted mod batch = 0 then tick ();
                                    let row = Array.append prow brow in
                                    if
                                      List.for_all
                                        (Expr.eval out_schema row)
                                        residual
                                    then begin
                                      out := row :: !out;
                                      if !emitted > limit then raise Timeout
                                    end)
                                  matches);
                      emit_chunks p emit !out));
            }
        | Physical.Index_nl ->
            let ostream = stream j.Physical.left in
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
            let indexed = Expr.eq (Expr.Col outer_key) (Expr.Col inner_key) in
            let residual =
              List.filter
                (fun pr -> not (Expr.equal_pred pr indexed))
                j.Physical.preds
            in
            let inner_tbl = inner_input.Fragment.table in
            let inner_schema = inner_tbl.Table.schema in
            let out_schema = Schema.concat ostream.ps_schema inner_schema in
            let okpos =
              Schema.find_exn ostream.ps_schema ~rel:outer_key.Expr.rel
                ~name:outer_key.Expr.name
            in
            {
              ps_schema = out_schema;
              ps_iter =
                (fun emit ->
                  let probes = ref 0 and matched = ref 0 in
                  ostream.ps_iter (fun m ->
                      let okey = morsel_col m okpos in
                      let fetch = morsel_fetch m in
                      let out = ref [] in
                      morsel_ordinals m (fun i ->
                          incr probes;
                          if !probes mod 1024 = 0 then tick ();
                          let key = okey i in
                          if not (Value.is_null key) then
                            List.iter
                              (fun rid ->
                                let irow = Table.row inner_tbl rid in
                                if
                                  List.for_all
                                    (Expr.eval inner_schema irow)
                                    inner_input.Fragment.filters
                                then begin
                                  incr matched;
                                  let row = Array.append (fetch i) irow in
                                  if
                                    List.for_all (Expr.eval out_schema row) residual
                                  then begin
                                    out := row :: !out;
                                    if !matched > limit then raise Timeout
                                  end
                                end)
                              (Index.lookup index key));
                      (* the inner side is consumed through the index;
                         its stats entry is the rows surviving the
                         lookups plus the input's own filters *)
                      Hashtbl.replace stats inner_node.Physical.id !matched;
                      emit_chunks p emit !out));
            }
        | Physical.Nl ->
            let ostream = stream j.Physical.left in
            let istream = stream j.Physical.right in
            let out_schema = Schema.concat ostream.ps_schema istream.ps_schema in
            {
              ps_schema = out_schema;
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
                          Array.iter
                            (fun irow ->
                              incr steps;
                              if !steps mod batch = 0 then tick ();
                              let row = Array.append orow irow in
                              if
                                List.for_all
                                  (Expr.eval out_schema row)
                                  j.Physical.preds
                              then begin
                                out := row :: !out;
                                incr kept;
                                if !kept > limit then raise Timeout
                              end)
                            inner);
                      emit_chunks p emit !out));
            })
  in
  let root = stream plan in
  let t0 = if spans <> None then Timer.now () else 0.0 in
  let rev_chunks = ref [] in
  Span.span spans Span.Pipeline ~args:(node_args plan)
    ("pipeline:" ^ span_label plan) (fun () ->
      root.ps_iter (fun m -> rev_chunks := morsel_rows m :: !rev_chunks));
  built_intermediate ();
  let out = Table.of_chunks ~name:"join" ~schema:root.ps_schema (List.rev !rev_chunks) in
  if spans <> None then operator_markers spans ~t0 plan stats;
  (out, stats)

let run ?deadline ?cancel ?(row_limit = default_row_limit) ?spans plan =
  match plan.Physical.node with
  | Physical.Join _ -> run_pipelined ?deadline ?cancel ~row_limit ?spans plan
  | Physical.Scan input ->
      (* a bare scan is just the leaf: [filter_input] keeps the scratch
         filter cache, which streaming it into a copy would lose *)
      let t0 = if spans <> None then Timer.now () else 0.0 in
      let out =
        Span.span spans Span.Pipeline ~args:(node_args plan)
          ("pipeline:" ^ span_label plan) (fun () ->
            filter_input ?deadline ?cancel input)
      in
      let stats : stats = Hashtbl.create 1 in
      Hashtbl.replace stats plan.Physical.id (Table.n_rows out);
      if spans <> None then operator_markers spans ~t0 plan stats;
      (out, stats)

let project ?name (tbl : Table.t) cols =
  match cols with
  | [] -> tbl
  | _ ->
      let seen = Hashtbl.create 8 in
      let cols =
        List.filter
          (fun (c : Expr.colref) ->
            if Hashtbl.mem seen (c.Expr.rel, c.Expr.name) then false
            else (
              Hashtbl.replace seen (c.Expr.rel, c.Expr.name) ();
              true))
          cols
      in
      let positions =
        List.map
          (fun (c : Expr.colref) ->
            Schema.find_exn tbl.Table.schema ~rel:c.Expr.rel ~name:c.Expr.name)
          cols
      in
      let schema = Array.of_list (List.map (fun p -> tbl.Table.schema.(p)) positions) in
      let chunks =
        List.init (Table.n_chunks tbl) (fun ci ->
            match Chunk.columnar (Table.chunk_data tbl ci) with
            | Some col ->
                (* columnar projection shares the retained columns —
                   no per-row work at all *)
                Chunk.of_columnar (Columnar.project col positions)
            | None ->
                Chunk.of_rows
                  (Array.map
                     (fun row ->
                       Array.of_list (List.map (fun p -> row.(p)) positions))
                     (Table.chunk tbl ci)))
      in
      Table.of_chunk_data ~name:(Option.value name ~default:tbl.Table.name) ~schema chunks

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
          Table.create ~name ~schema (Array.of_list (List.rev !rows)))
        first rest
