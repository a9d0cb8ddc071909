(* Out-of-core storage: chunk-file round-trips, buffer-pool behavior
   (eviction, pinning, bypass), degenerate chunk inputs, the 200-query
   differential corpus run fully out-of-core one query at a time and as
   a 4-domain harness run over one shared pool, pin-leak checks under
   cancellation, eviction under concurrent scans, and the plan-cache
   raising-computation regression. *)

module Value = Qs_storage.Value
module Schema = Qs_storage.Schema
module Table = Qs_storage.Table
module Chunk = Qs_storage.Chunk
module Chunk_file = Qs_storage.Chunk_file
module Buffer_pool = Qs_storage.Buffer_pool
module Catalog = Qs_storage.Catalog
module Query = Qs_query.Query
module Estimator = Qs_stats.Estimator
module Optimizer = Qs_plan.Optimizer
module Plan_cache = Qs_plan.Plan_cache
module Executor = Qs_exec.Executor
module Naive = Qs_exec.Naive
module Strategy = Qs_core.Strategy
module Fuzz = Qs_workload.Fuzz
module Pool = Qs_util.Pool
module Runner = Qs_harness.Runner
module Timer = Qs_util.Timer

let schema2 name = Schema.make name [ ("id", Value.TInt); ("v", Value.TStr) ]

let mk_rows n = Array.init n (fun i -> [| Value.Int i; Value.Str (string_of_int (i * 7)) |])

(* --- chunk-file format ------------------------------------------------- *)

let test_chunk_file_roundtrip () =
  Table.with_scratch_home ~capacity:1 @@ fun ~dir ~pool:_ ->
  let chunks =
    [|
      [|
        [| Value.Null; Value.Bool true; Value.Int min_int; Value.Float 0.1 |];
        [| Value.Str ""; Value.Bool false; Value.Int max_int; Value.Float (-0.0) |];
      |];
      [|
        [|
          Value.Str (String.make 300 'x');
          Value.Null;
          Value.Int (-42);
          Value.Float Float.nan;
        |];
      |];
      [|
        [| Value.Str "a\x00b"; Value.Bool true; Value.Int 0; Value.Float infinity |];
        [| Value.Str "snake"; Value.Bool false; Value.Int 7; Value.Float 1e-300 |];
        [| Value.Null; Value.Null; Value.Null; Value.Null |];
      |];
    |]
  in
  let file, logical =
    Chunk_file.write ~dir ~name:"round trip!" ~arity:4
      (Array.map Chunk.of_rows chunks)
  in
  Alcotest.(check int) "frames" 3 (Chunk_file.n_frames file);
  Array.iteri
    (fun i chunk ->
      let got = Chunk.rows (Chunk_file.read file i) in
      Alcotest.(check int) "rows" (Array.length chunk) (Array.length got);
      Array.iteri
        (fun r row ->
          Array.iteri
            (fun c v ->
              if Value.compare v got.(r).(c) <> 0 then
                Alcotest.failf "frame %d row %d col %d: %s <> %s" i r c
                  (Value.to_string v)
                  (Value.to_string got.(r).(c)))
            row)
        chunk;
      let expect_logical =
        Array.fold_left
          (fun a row -> Array.fold_left (fun a v -> a + Value.byte_size v) a row)
          0 chunk
      in
      Alcotest.(check int) "logical bytes" expect_logical logical.(i))
    chunks;
  (* reads are position-independent: frame 2 then frame 0 *)
  Alcotest.(check int)
    "re-read frame 0" 2
    (Chunk.n_rows (Chunk_file.read file 0));
  Alcotest.check_raises "out of range"
    (Invalid_argument
       (Printf.sprintf "Chunk_file.read %s: frame 3 of 3" (Chunk_file.path file)))
    (fun () -> ignore (Chunk_file.read file 3))

let test_chunk_file_rejects_empty () =
  Table.with_scratch_home ~capacity:1 @@ fun ~dir ~pool:_ ->
  (try
     ignore
       (Chunk_file.write ~dir ~name:"bad" ~arity:1
          [| Chunk.of_rows [| [| Value.Int 1 |] |]; Chunk.of_rows [||] |]);
     Alcotest.fail "empty chunk accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Chunk_file.write ~dir ~name:"none" ~arity:1 [||]);
    Alcotest.fail "empty chunk array accepted"
  with Invalid_argument _ -> ()

(* --- spilled tables behave like resident ones -------------------------- *)

let test_spilled_table_equals_resident () =
  let rows = mk_rows 50 in
  let resident = Table.create ~chunk_rows:7 ~inputs:[] ~name:"t" ~schema:(schema2 "t") rows in
  Table.with_scratch_home ~capacity:2 (fun ~dir ~pool:bp ->
      let spilled = Table.spill ~dir ~pool:bp resident in
      Alcotest.(check bool) "is spilled" true (Table.spilled spilled);
      Alcotest.(check bool) "resident is not" false (Table.spilled resident);
      Alcotest.(check int) "chunks" (Table.n_chunks resident) (Table.n_chunks spilled);
      Alcotest.(check string) "digest" (Table.digest resident) (Table.digest spilled);
      (* random access faults the right chunks *)
      List.iter
        (fun i ->
          Alcotest.(check bool)
            (Printf.sprintf "row %d" i)
            true
            (Table.row resident i = Table.row spilled i))
        [ 0; 6; 7; 13; 49 ];
      Alcotest.(check bool) "to_rows" true (Table.to_rows resident = Table.to_rows spilled);
      Alcotest.(check bool)
        "column_values" true
        (Table.column_values resident 1 = Table.column_values spilled 1);
      Alcotest.(check int) "byte_size" (Table.byte_size resident) (Table.byte_size spilled);
      (* the store picks the layout: the rows stay row-major resident
         and fault back column-major from the chunk file *)
      for ci = 0 to Table.n_chunks resident - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "resident chunk %d row-major" ci)
          true
          (Chunk.columnar (Table.chunk_data resident ci) = None);
        Alcotest.(check bool)
          (Printf.sprintf "spilled chunk %d column-major" ci)
          true
          (Chunk.columnar (Table.chunk_data spilled ci) <> None)
      done;
      (* iteration faulted well more chunks than fit in the pool *)
      let s = Buffer_pool.stats bp in
      Alcotest.(check bool) "misses happened" true (s.Buffer_pool.misses > 0);
      Alcotest.(check bool) "evictions happened" true (s.Buffer_pool.evictions > 0);
      Alcotest.(check int) "no pins leaked" 0 (Buffer_pool.pinned bp))

(* --- degenerate chunk inputs (the of_chunks / binary-search sweep) ----- *)

let row1 i = [| Value.Int i; Value.Str (string_of_int i) |]

(* [store] places each table the sweep builds: the identity, or a spill *)
let check_degenerate store =
  (* empty chunks interleaved in ragged input are dropped; offsets stay
     strictly increasing and row access lands on the right rows *)
  let t =
    store
      (Table.of_chunks ~inputs:[] ~name:"d" ~schema:(schema2 "d")
         [ [||]; [| row1 0 |]; [||]; [||]; [| row1 1; row1 2 |]; [||]; [| row1 3 |]; [||] ])
  in
  Alcotest.(check int) "chunks" 3 (Table.n_chunks t);
  Alcotest.(check int) "rows" 4 (Table.n_rows t);
  for i = 0 to 3 do
    Alcotest.(check bool) (Printf.sprintf "row %d" i) true (Table.row t i = row1 i)
  done;
  Alcotest.check_raises "row 4 out of range"
    (Invalid_argument "Table.row d: index 4 out of 4") (fun () ->
      ignore (Table.row t 4));
  (* an all-empty batch list is a zero-row, zero-chunk table; derived
     from a spilled input it still has no frame to write *)
  let z = Table.of_chunks ~inputs:[ t ] ~name:"z" ~schema:(schema2 "z") [ [||]; [||] ] in
  Alcotest.(check int) "zero chunks" 0 (Table.n_chunks z);
  Alcotest.(check int) "zero rows" 0 (Table.n_rows z);
  Alcotest.(check bool) "zero to_rows" true (Table.to_rows z = [||]);
  Alcotest.(check bool)
    "zero-row tables never spill" false (Table.spilled (store z));
  let e = store (Table.create ~inputs:[] ~name:"e" ~schema:(schema2 "e") [||]) in
  Alcotest.(check int) "empty create" 0 (Table.n_rows e);
  Table.iter (fun _ -> Alcotest.fail "no rows to visit") z;
  ignore (Table.digest z)

let test_degenerate_resident () = check_degenerate Fun.id

let test_degenerate_spilled () =
  (* the same sweep spilled: dropping empties must happen before the
     chunk-file writer, which rejects zero-row frames *)
  Table.with_scratch_home ~capacity:2 (fun ~dir ~pool ->
      check_degenerate (Table.spill ~dir ~pool))

(* --- buffer-pool mechanics --------------------------------------------- *)

let test_hits_and_misses () =
  Table.with_scratch_home ~capacity:3 (fun ~dir ~pool:bp ->
      let t =
        Table.spill ~dir ~pool:bp
          (Table.create ~chunk_rows:5 ~inputs:[] ~name:"t" ~schema:(schema2 "t") (mk_rows 15))
      in
      Alcotest.(check int) "3 chunks" 3 (Table.n_chunks t);
      ignore (Table.chunk t 0);
      let s = Buffer_pool.stats bp in
      Alcotest.(check int) "one miss" 1 s.Buffer_pool.misses;
      ignore (Table.chunk t 0);
      ignore (Table.chunk t 0);
      let s = Buffer_pool.stats bp in
      Alcotest.(check int) "two hits" 2 s.Buffer_pool.hits;
      Alcotest.(check int) "still one miss" 1 s.Buffer_pool.misses;
      ignore (Table.chunk t 1);
      ignore (Table.chunk t 2);
      let s = Buffer_pool.stats bp in
      Alcotest.(check int) "all resident, no evictions" 0 s.Buffer_pool.evictions;
      Alcotest.(check int) "resident" 3 (Buffer_pool.resident bp))

let test_bypass_when_all_pinned () =
  Table.with_scratch_home ~capacity:1 (fun ~dir ~pool:bp ->
      let t =
        Table.spill ~dir ~pool:bp
          (Table.create ~chunk_rows:4 ~inputs:[] ~name:"t" ~schema:(schema2 "t") (mk_rows 12))
      in
      (* hold chunk 0 pinned (iter pins the chunk being consumed); chunk 1
         must still be readable — as an uncached bypass *)
      let seen = ref 0 in
      Table.iter
        (fun row ->
          incr seen;
          if !seen = 1 then begin
            Alcotest.(check int) "scan holds one pin" 1 (Buffer_pool.pinned bp);
            let c1 = Table.chunk t 1 in
            Alcotest.(check int) "bypass read is correct" 4 (Array.length c1);
            let s = Buffer_pool.stats bp in
            Alcotest.(check bool) "bypassed" true (s.Buffer_pool.bypasses >= 1)
          end;
          ignore row)
        t;
      Alcotest.(check int) "rows seen" 12 !seen;
      Alcotest.(check int) "no pins leaked" 0 (Buffer_pool.pinned bp))

exception Cancelled_mid_scan

let test_pin_released_on_cancellation () =
  Table.with_scratch_home ~capacity:2 (fun ~dir ~pool:bp ->
      let t =
        Table.spill ~dir ~pool:bp
          (Table.create ~chunk_rows:3 ~inputs:[] ~name:"t" ~schema:(schema2 "t") (mk_rows 30))
      in
      (* cancel mid-scan from inside the consumer (the executor's
         cooperative cancellation raises from exactly here) at several
         depths, including mid-chunk and on a chunk boundary *)
      List.iter
        (fun stop_at ->
          (try
             let n = ref 0 in
             Table.iter
               (fun _ ->
                 incr n;
                 if !n = stop_at then raise Cancelled_mid_scan)
               t;
             Alcotest.fail "scan was not cancelled"
           with Cancelled_mid_scan -> ());
          Alcotest.(check int)
            (Printf.sprintf "no pin leaked at row %d" stop_at)
            0 (Buffer_pool.pinned bp))
        [ 1; 3; 4; 29 ];
      (* fold unwinds the same way *)
      (try
         ignore
           (Table.fold (fun acc _ -> if acc = 7 then raise Cancelled_mid_scan else acc + 1) 0 t);
         Alcotest.fail "fold was not cancelled"
       with Cancelled_mid_scan -> ());
      Alcotest.(check int) "no pin leaked by fold" 0 (Buffer_pool.pinned bp))

let test_eviction_under_concurrent_scans () =
  Pool.with_pool ~domains:4 (fun cpu ->
      Table.with_scratch_home ~capacity:2 (fun ~dir ~pool:bp ->
          let t =
            Table.spill ~dir ~pool:bp
              (Table.create ~chunk_rows:8 ~inputs:[] ~name:"t" ~schema:(schema2 "t") (mk_rows 128))
          in
          Alcotest.(check int) "16 chunks" 16 (Table.n_chunks t);
          let expected = Table.digest t in
          (* 8 concurrent scans over a 2-frame pool: every access pattern
             races with eviction; each scan must still see every row *)
          let digests =
            Pool.map cpu
              (fun salt ->
                let sum = ref salt in
                Table.iteri (fun i r -> sum := !sum + (i * Array.length r)) t;
                ignore !sum;
                Table.digest t)
              (List.init 8 Fun.id)
          in
          List.iter (fun d -> Alcotest.(check string) "scan digest" expected d) digests;
          Alcotest.(check int) "no pins leaked" 0 (Buffer_pool.pinned bp);
          Alcotest.(check bool)
            "pool stayed bounded" true
            (Buffer_pool.resident bp <= 2)))

(* mid-pipeline unwinds: the pipelined engine polls deadline/cancel at
   every morsel boundary while the morsel's frame is pinned, and counts
   emitted rows against the row limit inside the probe fan-out — all
   three exits must release every pin on the way out. Spilled frames
   fault back column-major, so the morsels run the selection-vector
   scans and batch key decodes. *)
let pipelined_unwind_releases_pins ~chunk_rows ~capacity =
  Table.with_scratch_home ~capacity (fun ~dir ~pool:bp ->
      let cat = Fixtures.shop_catalog ~n_orders:300 ~chunk_rows ~spill:(dir, bp) () in
      let registry = Qs_stats.Stats_registry.create cat in
      let ctx = Strategy.make_ctx registry Estimator.default in
      let frag = Strategy.fragment_of_query ctx (Fixtures.shop_query ()) in
      let plan =
        (Optimizer.optimize cat Estimator.default frag).Optimizer.plan
      in
      (* a deadline already in the past fires at the first poll *)
      (try
         ignore
           (Executor.run
              ~deadline:(Timer.now () -. 1.0)
              plan);
         Alcotest.fail "expired deadline did not fire"
       with Executor.Timeout -> ());
      Alcotest.(check int) "no pins after timeout" 0 (Buffer_pool.pinned bp);
      (* a tiny row limit fires mid-probe, with build and probe frames live *)
      (try
         ignore (Executor.run ~row_limit:5 plan);
         Alcotest.fail "row limit did not fire"
       with Executor.Timeout -> ());
      Alcotest.(check int) "no pins after row limit" 0 (Buffer_pool.pinned bp);
      (* cooperative cancellation unwinds the same way *)
      let tok = Qs_util.Cancel.create () in
      Qs_util.Cancel.cancel tok;
      (try
         ignore (Executor.run ~cancel:tok plan);
         Alcotest.fail "cancellation did not fire"
       with Qs_util.Cancel.Cancelled -> ());
      Alcotest.(check int) "no pins after cancel" 0 (Buffer_pool.pinned bp);
      (* the pool is not poisoned: the same plan still completes *)
      let tbl, _ = Executor.run plan in
      Alcotest.(check bool) "rerun returns rows" true (Table.n_rows tbl > 0);
      Alcotest.(check int) "no pins after rerun" 0 (Buffer_pool.pinned bp);
      Buffer_pool.stats bp)

(* 16-row chunks through a 2-frame pool: every morsel evicts *)
let test_pipelined_unwind_releases_pins () =
  let s = pipelined_unwind_releases_pins ~chunk_rows:16 ~capacity:2 in
  Alcotest.(check bool) "frames evicted" true (s.Buffer_pool.evictions > 0)

(* the same unwinds over 7-row ragged chunks through a pool that never
   evicts: a pinned frame stays resident after the unwind, and the
   rerun must find it unpinned *)
let test_pipelined_unwind_releases_pins_columnar () =
  let s = pipelined_unwind_releases_pins ~chunk_rows:7 ~capacity:4096 in
  Alcotest.(check int) "nothing evicted" 0 s.Buffer_pool.evictions;
  Alcotest.(check bool) "reruns hit resident frames" true (s.Buffer_pool.hits > 0)

(* spilled execution produces byte-identical results for every strategy,
   covering Temp materialization writing through the pool *)
let test_strategies_out_of_core () =
  let expected =
    let _cat, ctx = Fixtures.shop_ctx ~n_orders:300 ~chunk_rows:32 () in
    let q = Fixtures.shop_query () in
    List.map
      (fun (s : Strategy.t) ->
        (s.Strategy.name, Table.digest (s.Strategy.run ctx q).Strategy.result))
      Test_strategies.all_strategies
  in
  Table.with_scratch_home ~capacity:3 (fun ~dir ~pool:bp ->
      let _cat, ctx = Fixtures.shop_ctx ~n_orders:300 ~chunk_rows:32 ~spill:(dir, bp) () in
      let q = Fixtures.shop_query () in
      List.iter
        (fun (s : Strategy.t) ->
          let d = Table.digest (s.Strategy.run ctx q).Strategy.result in
          let expect = List.assoc s.Strategy.name expected in
          Alcotest.(check string) ("strategy " ^ s.Strategy.name) expect d)
        Test_strategies.all_strategies;
      let st = Buffer_pool.stats bp in
      Alcotest.(check bool) "execution faulted" true (st.Buffer_pool.misses > 0);
      Alcotest.(check int) "no pins leaked" 0 (Buffer_pool.pinned bp))

(* --- the 200-query differential corpus, fully out-of-core -------------- *)

let max_result_rows = 60_000

(* Resident reference digests for the corpus (explosive queries
   skipped), per chunk size, each computed once per run: an out-of-core
   run is compared with the resident run at its own chunk size, so a
   mismatch points at the store alone. *)
let references = Hashtbl.create 2

let corpus_digests ?columnar ?spill ?chunk_rows () =
  let cat = Fixtures.shop_catalog ~n_orders:400 ?columnar ?chunk_rows ?spill () in
  let registry = Qs_stats.Stats_registry.create cat in
  let ctx = Strategy.make_ctx registry Estimator.default in
  let queries = Fuzz.queries cat ~seed:20230617 ~n:200 () in
  let keep =
    match Hashtbl.to_seq_values references () with
    | Seq.Cons ((names, _), _) -> fun (q : Query.t) -> List.mem q.Query.name names
    | Seq.Nil ->
        fun q -> Naive.count (Strategy.fragment_of_query ctx q) <= max_result_rows
  in
  List.filter_map
    (fun (q : Query.t) ->
      if not (keep q) then None
      else begin
        let frag = Strategy.fragment_of_query ctx q in
        let plan = (Optimizer.optimize cat Estimator.default frag).Optimizer.plan in
        let tbl, _ = Executor.run plan in
        Some (q.Query.name, Table.digest (Executor.project ~name:q.Query.name tbl q.Query.output))
      end)
    queries

let in_memory_reference ?(chunk_rows = 64) () =
  match Hashtbl.find_opt references chunk_rows with
  | Some r -> r
  | None ->
      let digests = corpus_digests ~chunk_rows () in
      let r = (List.map fst digests, digests) in
      Hashtbl.replace references chunk_rows r;
      r

let compare_against_reference ?chunk_rows ~what got =
  let _, expected = in_memory_reference ?chunk_rows () in
  Alcotest.(check int) "query count" (List.length expected) (List.length got);
  List.iter2
    (fun (qa, da) (qb, db) ->
      Alcotest.(check string) "query order" qa qb;
      if da <> db then Alcotest.failf "%s: %s digest differs" qa what)
    expected got

let check_out_of_core_corpus ?(chunk_rows = 64) ~capacity () =
  ignore (in_memory_reference ~chunk_rows ());
  let got =
    Table.with_scratch_home ~capacity (fun ~dir ~pool:bp ->
        let digests = corpus_digests ~chunk_rows ~spill:(dir, bp) () in
        let s = Buffer_pool.stats bp in
        Alcotest.(check bool) "corpus faulted" true (s.Buffer_pool.misses > 0);
        Alcotest.(check int) "no pins leaked" 0 (Buffer_pool.pinned bp);
        digests)
  in
  compare_against_reference ~chunk_rows
    ~what:
      (Printf.sprintf "out-of-core (%d-row chunks, capacity %d)" chunk_rows
         capacity)
    got

let test_corpus_width_1 () = check_out_of_core_corpus ~capacity:1 ()

(* The corpus as a harness run: [Runner.run_spj ~domains:4] fans the
   queries across four domains, each query on the domain that picked it
   up, all faulting through one shared 4-frame pool — concurrent
   faults, coalescing and eviction on real queries. With
   [against_naive], each query's result must also equal the naive
   executor's, run over the same spilled tables. *)
let check_harness_corpus ?(against_naive = false) () =
  let names, _ = in_memory_reference () in
  let got =
    Table.with_scratch_home ~capacity:4 (fun ~dir ~pool:bp ->
        let cat = Fixtures.shop_catalog ~n_orders:400 ~chunk_rows:64 ~spill:(dir, bp) () in
        let env = Runner.make_env cat in
        let queries =
          List.filter
            (fun (q : Query.t) -> List.mem q.Query.name names)
            (Fuzz.queries cat ~seed:20230617 ~n:200 ())
        in
        let digests =
          List.map
            (fun (r : Runner.qresult) -> (r.Runner.query, r.Runner.digest))
            (Runner.run_spj ~domains:4 ~timeout:60.0 env Qs_harness.Algos.default
               queries)
        in
        if against_naive then begin
          let ctx = Strategy.make_ctx env.Runner.registry Estimator.default in
          List.iter2
            (fun (q : Query.t) (name, digest) ->
              let naive = Table.digest (Naive.rows (Strategy.fragment_of_query ctx q)) in
              if naive <> digest then
                Alcotest.failf "%s: harness result diverges from naive" name)
            queries digests
        end;
        let s = Buffer_pool.stats bp in
        Alcotest.(check bool) "corpus faulted" true (s.Buffer_pool.misses > 0);
        Alcotest.(check int) "no pins leaked" 0 (Buffer_pool.pinned bp);
        digests)
  in
  compare_against_reference ~what:"4-domain harness, out-of-core" got

let test_corpus_harness_width_4 () = check_harness_corpus ()

(* the cross-layout differential. Spilled frames fault back
   column-major, so every out-of-core run above already drives the
   vectorized scans, batch join key decodes and columnar aggregation
   against the resident row-major reference digests. The cases below
   cover what those do not: resident base tables built column-major by
   hand (intermediates then mix both layouts), 7-row ragged chunks at
   one frame, and a cross-engine run — the 4-domain harness run, with
   each query's result checked against the naive executor's. *)
let test_corpus_columnar_resident () =
  ignore (in_memory_reference ());
  compare_against_reference ~what:"columnar resident"
    (corpus_digests ~columnar:true ~chunk_rows:64 ())

let test_corpus_columnar_width_1 () =
  check_out_of_core_corpus ~chunk_rows:7 ~capacity:1 ()

let test_corpus_columnar_cross_engine_width_4 () =
  check_harness_corpus ~against_naive:true ()

(* --- Plan_cache: raising planner shared across two sessions ------------ *)

let test_plan_cache_raising_planner () =
  let cache : int Plan_cache.t = Plan_cache.create () in
  let attempts = Atomic.make 0 in
  let planner () =
    Atomic.incr attempts;
    (* linger so the second session coalesces onto this computation
       instead of racing past it *)
    let t0 = Timer.now () in
    while Timer.elapsed ~since:t0 < 0.02 do
      Domain.cpu_relax ()
    done;
    failwith "planner exploded"
  in
  let session () =
    match Plan_cache.find_or_compute cache ~key:"q" planner with
    | _ -> `Value
    | exception Failure _ -> `Raised
  in
  let d1 = Domain.spawn session in
  let d2 = Domain.spawn session in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  (* neither session may hang or observe a cached failure *)
  Alcotest.(check bool) "session 1 raised" true (r1 = `Raised);
  Alcotest.(check bool) "session 2 raised" true (r2 = `Raised);
  Alcotest.(check int) "failure not cached" 0 (Plan_cache.size cache);
  (* the cache is not wedged: a later good computation lands... *)
  let v, hit = Plan_cache.find_or_compute cache ~key:"q" (fun () -> 41) in
  Alcotest.(check int) "recomputed" 41 v;
  Alcotest.(check bool) "recompute is a miss" false hit;
  (* ...and is served from cache thereafter, planner never re-run *)
  let v2, hit2 = Plan_cache.find_or_compute cache ~key:"q" (fun () -> 0) in
  Alcotest.(check int) "cached value" 41 v2;
  Alcotest.(check bool) "second lookup hits" true hit2;
  Alcotest.(check int) "one entry" 1 (Plan_cache.size cache);
  Alcotest.(check bool) "planner ran" true (Atomic.get attempts >= 1)

let suite =
  [
    Alcotest.test_case "chunk_file roundtrip" `Quick test_chunk_file_roundtrip;
    Alcotest.test_case "chunk_file rejects empty frames" `Quick test_chunk_file_rejects_empty;
    Alcotest.test_case "spilled table equals resident" `Quick test_spilled_table_equals_resident;
    Alcotest.test_case "degenerate chunks (resident)" `Quick test_degenerate_resident;
    Alcotest.test_case "degenerate chunks (spilled)" `Quick test_degenerate_spilled;
    Alcotest.test_case "hits, misses, residency" `Quick test_hits_and_misses;
    Alcotest.test_case "bypass when all frames pinned" `Quick test_bypass_when_all_pinned;
    Alcotest.test_case "pins released on cancellation" `Quick test_pin_released_on_cancellation;
    Alcotest.test_case "eviction under concurrent scans" `Quick test_eviction_under_concurrent_scans;
    Alcotest.test_case "pipelined unwind releases pins" `Quick
      test_pipelined_unwind_releases_pins;
    Alcotest.test_case "pipelined unwind releases pins (columnar)" `Quick
      test_pipelined_unwind_releases_pins_columnar;
    Alcotest.test_case "strategies out-of-core" `Quick test_strategies_out_of_core;
    Alcotest.test_case "200-query corpus out-of-core, width 1" `Slow test_corpus_width_1;
    Alcotest.test_case "200-query corpus out-of-core, width 4 harness" `Slow
      test_corpus_harness_width_4;
    Alcotest.test_case "200-query corpus columnar resident, 64-row chunks" `Slow
      test_corpus_columnar_resident;
    Alcotest.test_case "200-query corpus columnar out-of-core, width 1" `Slow
      test_corpus_columnar_width_1;
    Alcotest.test_case "200-query corpus columnar cross-engine, width 4 harness" `Slow
      test_corpus_columnar_cross_engine_width_4;
    Alcotest.test_case "plan cache: raising planner, two sessions" `Quick
      test_plan_cache_raising_planner;
  ]
