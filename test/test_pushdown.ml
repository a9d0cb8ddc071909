(* Projection pushdown: [Executor.run ~project:cols plan] must equal
   [Executor.project (Executor.run plan) cols] (the same rows by digest,
   the same per-node stats), and its schema must be the projection, in
   order. Checked over the fuzz corpus, the Cinema queries and the DSB
   SPJ queries, on resident and on spilled tables, at chunk sizes 1, 7
   and the default, plus hand-built joins whose residual columns are not
   projected. The same matrix checks that spilled (columnar) morsels,
   which decode rows on demand, give the resident run's rows and stats. *)

module Value = Qs_storage.Value
module Chunk = Qs_storage.Chunk
module Table = Qs_storage.Table
module Schema = Qs_storage.Schema
module Catalog = Qs_storage.Catalog
module Buffer_pool = Qs_storage.Buffer_pool
module Estimator = Qs_stats.Estimator
module Optimizer = Qs_plan.Optimizer
module Physical = Qs_plan.Physical
module Executor = Qs_exec.Executor
module Naive = Qs_exec.Naive
module Query = Qs_query.Query
module Expr = Qs_query.Expr
module Strategy = Qs_core.Strategy

let sorted_stats stats =
  List.sort compare (Hashtbl.fold (fun id n acc -> (id, n) :: acc) stats [])

let column_ids (t : Table.t) = Array.to_list (Array.map Schema.column_id t.Table.schema)

(* One plan under one projection; [full] is the plain run of the plan. *)
let check_projection ~what ~full plan cols =
  let full_tbl, full_stats = full in
  let expected = Executor.project full_tbl cols in
  let got, stats = Executor.run ~project:cols plan in
  if Table.digest got <> Table.digest expected then
    Alcotest.failf "%s: pushed-down projection changes the rows" what;
  if sorted_stats stats <> sorted_stats full_stats then
    Alcotest.failf "%s: pushed-down projection changes the node stats" what;
  (* the root emits exactly the projection list, duplicates dropped; an
     empty one is the plain run's concatenated schema *)
  let ids = List.map (fun (c : Expr.colref) -> c.Expr.rel ^ "." ^ c.Expr.name) cols in
  let order =
    if cols = [] then column_ids full_tbl
    else List.rev (List.fold_left (fun acc i -> if List.mem i acc then acc else i :: acc) [] ids)
  in
  Alcotest.(check (list string)) (what ^ ": projection order") order (column_ids got)

(* a query's own projection, the same reversed with duplicates, and [] *)
let check_plan ~what plan output =
  let full = Executor.run plan in
  check_projection ~what:(what ^ " output") ~full plan output;
  check_projection ~what:(what ^ " reversed output") ~full plan (List.rev output @ output);
  check_projection ~what:(what ^ " []") ~full plan []

let ctx_of cat = Strategy.make_ctx (Qs_stats.Stats_registry.create cat) Estimator.default

let plans cat queries =
  let ctx = ctx_of cat in
  List.map
    (fun (q : Query.t) ->
      let frag = Strategy.fragment_of_query ctx q in
      (q, (Optimizer.optimize cat Estimator.default frag).Optimizer.plan))
    queries

let with_indexes cat =
  Catalog.build_indexes cat Catalog.Pk_fk;
  cat

(* The three corpora, each a catalog constructor and its queries. The data
   depend only on the seeds, so the queries are drawn once, from
   resident catalogs, and planned against each configuration's own
   build. The fuzz corpus drops its explosive queries; Cinema runs at a
   small scale, since a spilled one-row-chunk run pays a frame fault
   per row. *)
let corpora =
  lazy
    (let fuzz () = Fixtures.shop_catalog ~n_orders:400 () in
     let cinema () = with_indexes (Qs_workload.Cinema.build ~scale:0.03 ~seed:3 ()) in
     let dsb () = with_indexes (Qs_workload.Dsb.build ~scale:0.05 ~seed:1 ()) in
     let fuzz_queries =
       let cat = fuzz () in
       let ctx = ctx_of cat in
       List.filter
         (fun q -> Naive.count (Strategy.fragment_of_query ctx q) <= 60_000)
         (Qs_workload.Fuzz.queries cat ~seed:20230617 ~n:200 ())
     in
     [
       ("fuzz", fuzz, fuzz_queries);
       ("cinema", cinema, Qs_workload.Cinema.queries (cinema ()) ~seed:4 ~n:12);
       ("dsb", dsb, Qs_workload.Dsb.spj_queries (dsb ()) ~seed:2);
     ])

(* [f ?spill ()] on resident tables, or on tables spilled through a
   fresh 4-frame pool that has no pin left afterwards *)
let in_store store (f : ?spill:string * Buffer_pool.t -> unit -> unit) =
  if store = "spilled" then
    Table.with_scratch_home ~capacity:4 (fun ~dir ~pool ->
        f ~spill:(dir, pool) ();
        Alcotest.(check int) "no pins leaked" 0 (Buffer_pool.pinned pool))
  else f ()

let check_corpora ~store ~chunk_rows () =
  let corpora = Lazy.force corpora in
  let body ?spill () =
    List.iter
      (fun (corpus, build, queries) ->
        List.iter
          (fun ((q : Query.t), plan) ->
            check_plan
              ~what:(Printf.sprintf "%s/%s (%s, chunk %s)" corpus q.Query.name store chunk_rows)
              plan q.Query.output)
          (plans
             (Fixtures.store ?chunk_rows:(int_of_string_opt chunk_rows) ?spill (build ()))
             queries))
      corpora
  in
  in_store store body

(* --- hand-built joins whose residual columns are not projected -------- *)

let table name rows =
  Table.create ~inputs:[] ~name
    ~schema:(Schema.make name [ ("k", Value.TInt); ("v", Value.TInt); ("tag", Value.TStr) ])
    (Array.init rows (fun i ->
         [| Value.Int (i mod 5); Value.Int (i * 7 mod 11); Value.Str (string_of_int i) |]))

let col rel name = { Expr.rel; name }

let scan t filters =
  Physical.scan (Test_executor.fragment_input ~filters t) ~est_rows:10.0 ~est_cost:1.0

let join method_ ?index left right preds =
  Physical.join ~method_ ?index () ~left ~right ~preds ~est_rows:10.0 ~est_cost:1.0

let on a b = Expr.eq (Expr.Col a) (Expr.Col b)
let lt a b = Expr.Cmp (Expr.Lt, Expr.Col a, Expr.Col b)

let test_residual_not_projected () =
  let a = table "a" 20 and b = table "b" 15 and c = table "c" 9 in
  (* the hash residual, the NL predicate and the index-NL residual each
     read a [v] column no projection keeps *)
  let hash = join Physical.Hash (scan a []) (scan b []) [ on (col "a" "k") (col "b" "k"); lt (col "a" "v") (col "b" "v") ] in
  let nl = join Physical.Nl hash (scan c []) [ lt (col "b" "v") (col "c" "v") ] in
  let ix = Qs_storage.Index.build c ~column:"k" ~unique:false in
  let inl =
    join Physical.Index_nl ~index:(ix, col "a" "k", col "c" "k") hash (scan c [])
      [ on (col "a" "k") (col "c" "k"); lt (col "c" "v") (col "b" "v") ]
  in
  List.iter
    (fun (what, plan, output) ->
      Alcotest.(check bool) (what ^ ": rows") true
        (Table.n_rows (fst (Executor.run plan)) > 0);
      check_plan ~what plan output)
    [
      ("hash", hash, [ col "b" "tag"; col "a" "tag" ]);
      ("hash+nl", nl, [ col "c" "tag"; col "a" "k" ]);
      ("hash+index-nl", inl, [ col "c" "tag" ]);
    ]

(* --- hand-built plans over o, i and x ------------------------------------ *)

(* The base tables of the hand-built plans below, cut at [chunk_rows]
   and, with [spill], moved out-of-core: an outer o and an inner i whose
   scan filters leave the batch kernels for the row fallback (LIKE, OR)
   and keep a sparse share of the rows, and a third table x. *)
let hand_tables ?chunk_rows ?spill () =
  let base ~name ~schema rows =
    let t = Table.create ?chunk_rows ~inputs:[] ~name ~schema rows in
    match spill with None -> t | Some (dir, pool) -> Table.spill ~dir ~pool t
  in
  let o =
    base ~name:"o"
      ~schema:
        (Schema.make "o"
           [ ("k", Value.TInt); ("v", Value.TInt); ("tag", Value.TStr); ("note", Value.TStr) ])
      (Array.init 400 (fun r ->
           [|
             Value.Int (r mod 37);
             Value.Int (r * 13 mod 29);
             Value.Str (Printf.sprintf "t%03d" r);
             (if r mod 5 = 0 then Value.Null else Value.Str (string_of_int (r mod 9)));
           |]))
  in
  let i =
    base ~name:"i"
      ~schema:(Schema.make "i" [ ("k", Value.TInt); ("w", Value.TInt); ("label", Value.TStr) ])
      (Array.init 120 (fun r ->
           [|
             Value.Int (r mod 41);
             Value.Int (r * 7 mod 23);
             Value.Str ((if r mod 4 = 0 then "keep" else "drop") ^ string_of_int r);
           |]))
  in
  let x =
    base ~name:"x"
      ~schema:
        (Schema.make "x" [ ("k", Value.TInt); ("z", Value.TInt); ("name", Value.TStr); ("pad", Value.TFloat) ])
      (Array.init 90 (fun r ->
           [|
             Value.Int (r mod 31);
             Value.Int (r * 11 mod 17);
             Value.Str (Printf.sprintf "x%02d" r);
             Value.Float (float_of_int r /. 3.0);
           |]))
  in
  (o, i, x)

let o_filters =
  [
    Expr.Cmp (Expr.Lt, Expr.Col (col "o" "k"), Expr.vint 30);
    Expr.Or
      [
        Expr.Like (Expr.Col (col "o" "tag"), "%7");
        Expr.Cmp (Expr.Eq, Expr.Col (col "o" "v"), Expr.vint 3);
      ];
    Expr.Not_null (Expr.Col (col "o" "note"));
  ]

let i_filters = [ Expr.Like (Expr.Col (col "i" "label"), "keep%") ]
let x_filters = [ Expr.Cmp (Expr.Ne, Expr.Col (col "x" "z"), Expr.vint 4) ]

let keys = on (col "o" "k") (col "i" "k")

(* --- columnar morsels decode only what they hand out ------------------ *)

let configs =
  List.concat_map
    (fun store -> List.map (fun c -> (store, c)) [ 1; 7; 65_536 ])
    [ "resident"; "spilled" ]

(* o and i joined by hash, index-NL and NL. Spilled, their frames fault
   in column-major, so every morsel is a sparse selection over a
   columnar chunk: the fallback, the hash build and probe fetches, the
   index-NL outer fetch and the NL inner buffer all decode on demand.
   The rows and the per-node stats must equal the resident (row-major)
   run, at every chunk size. *)
let decode_plans ?chunk_rows ?spill () =
  let o, i, _ = hand_tables ?chunk_rows ?spill () in
  let ix = Qs_storage.Index.build i ~column:"k" ~unique:false in
  ( Chunk.columnar (Table.chunk_data o 0) <> None,
    [
      ( "hash",
        join Physical.Hash (scan o o_filters) (scan i i_filters)
          [ keys; lt (col "o" "v") (col "i" "w") ] );
      ( "index-nl",
        join Physical.Index_nl ~index:(ix, col "o" "k", col "i" "k") (scan o o_filters)
          (scan i i_filters) [ keys; lt (col "i" "w") (col "o" "v") ] );
      ("nl", join Physical.Nl (scan o o_filters) (scan i i_filters) [ keys ]);
    ] )

let decode_results ?chunk_rows ?spill () =
  let columnar, plans = decode_plans ?chunk_rows ?spill () in
  ( columnar,
    List.concat_map
      (fun (what, plan) ->
        List.map
          (fun project ->
            let t, stats = Executor.run ~project plan in
            (* node ids differ between builds: key the stats by the
               plan's node order *)
            let stats =
              List.map
                (fun (n : Physical.t) -> Hashtbl.find stats n.Physical.id)
                (Physical.nodes plan)
            in
            (what, Table.n_rows t, Table.digest t, stats))
          [ []; [ col "i" "label"; col "o" "tag" ] ])
      plans )

let test_decode_on_demand () =
  let columnar, reference = decode_results () in
  Alcotest.(check bool) "resident chunks are row-major" false columnar;
  List.iter
    (fun (what, n, _, _) ->
      if n = 0 then Alcotest.failf "%s: the reference run is empty" what)
    reference;
  List.iter
    (fun (store, chunk_rows) ->
      let run ?spill () =
        let columnar, got = decode_results ~chunk_rows ?spill () in
        Alcotest.(check bool)
          (store ^ ": spilled chunks are columnar")
          (store = "spilled") columnar;
        List.iter2
          (fun (what, _, want_digest, want_stats) (_, _, digest, stats) ->
            let what = Printf.sprintf "%s (%s, chunk %d)" what store chunk_rows in
            Alcotest.(check string) (what ^ ": rows") want_digest digest;
            if stats <> want_stats then Alcotest.failf "%s: per-node stats differ" what)
          reference got
      in
      in_store store run)
    configs

(* --- spilled scans and index-NL lookups decode only the columns read ---- *)

(* Over spilled tables a scan emits morsels projected to what its parent
   reads, and an index-NL inner lookup fills only the cells its filters,
   residual and gather map read. Each plan below runs under narrow
   projections whose rows are reached only through residual, key and
   gather columns that no projection keeps: a column dropped from any of
   those sets changes the rows (or raises). Three-way plans put a join
   under another, so the lower join's want carries the upper join's
   predicate columns. Digests and per-node stats must equal the naive
   join's, resident and spilled at chunk sizes 1, 7 and the default,
   under sparse filters. *)
let projected_plans ?chunk_rows ?spill () =
  let o, i, x = hand_tables ?chunk_rows ?spill () in
  let i_ix = Qs_storage.Index.build i ~column:"k" ~unique:false in
  let x_ix = Qs_storage.Index.build x ~column:"k" ~unique:false in
  let hash_oi () =
    join Physical.Hash (scan o o_filters) (scan i i_filters) [ keys; lt (col "o" "v") (col "i" "w") ]
  in
  let two_way = [ [ col "o" "tag" ]; [ col "i" "label" ]; [ col "i" "w"; col "o" "note" ]; [ col "o" "k" ] ] in
  let three_way = [ [ col "x" "name"; col "o" "tag" ]; [ col "i" "label" ]; [ col "x" "pad" ] ] in
  [
    ("hash", hash_oi (), two_way);
    ( "index-nl",
      join Physical.Index_nl ~index:(i_ix, col "o" "k", col "i" "k") (scan o o_filters)
        (scan i i_filters) [ keys; lt (col "i" "w") (col "o" "v") ],
      two_way );
    ("nl", join Physical.Nl (scan o o_filters) (scan i i_filters) [ keys; lt (col "o" "v") (col "i" "w") ], two_way);
    ( "hash over hash",
      join Physical.Hash (hash_oi ()) (scan x x_filters)
        [ on (col "x" "k") (col "o" "k"); lt (col "i" "w") (col "x" "z") ],
      three_way );
    ( "index-nl over hash",
      join Physical.Index_nl ~index:(x_ix, col "o" "v", col "x" "k") (hash_oi ()) (scan x x_filters)
        [ on (col "o" "v") (col "x" "k"); lt (col "x" "z") (col "i" "w") ],
      three_way );
    ( "nl over hash",
      join Physical.Nl (hash_oi ()) (scan x x_filters) [ lt (col "x" "z") (col "o" "v"); on (col "x" "k") (col "i" "w") ],
      three_way );
  ]

(* Each plan under each projection against the naive join: the rows by
   digest and every node's cardinality. The reference is independent of
   the engine, because resident and spilled runs now share the lookup
   path: a column the engine drops would be dropped on both. *)
let check_projected ~config ?chunk_rows ?spill () =
  List.iter
    (fun (what, plan, projections) ->
      let leaves = Physical.leaves plan in
      let preds =
        List.concat_map
          (fun (j : Physical.t) ->
            match j.Physical.node with Physical.Join j -> j.Physical.preds | _ -> [])
          (Physical.joins_post_order plan)
      in
      List.iter
        (fun project ->
          let what =
            Printf.sprintf "%s [%s] (%s)" what
              (String.concat ", "
                 (List.map (fun (c : Expr.colref) -> c.Expr.rel ^ "." ^ c.Expr.name) project))
              config
          in
          let frag = { Qs_stats.Fragment.inputs = leaves; preds; output = project } in
          let want = Naive.rows frag in
          if Table.n_rows want = 0 then Alcotest.failf "%s: the reference is empty" what;
          let got, stats = Executor.run ~project plan in
          Alcotest.(check string) (what ^ ": rows") (Table.digest want) (Table.digest got);
          Fixtures.check_node_rows ~what frag plan stats)
        projections)
    (projected_plans ?chunk_rows ?spill ())

let test_projected_decode () =
  List.iter
    (fun (store, chunk_rows) ->
      in_store store
        (check_projected ~config:(Printf.sprintf "%s, chunk %d" store chunk_rows) ~chunk_rows))
    configs

let suite =
  Alcotest.test_case "residual columns not projected" `Quick test_residual_not_projected
  :: Alcotest.test_case "spilled scans and lookups decode only the columns read" `Quick
       test_projected_decode
  :: Alcotest.test_case "columnar morsels decode on demand = resident" `Quick
       test_decode_on_demand
  :: List.concat_map
       (fun store ->
         List.map
           (fun chunk_rows ->
             Alcotest.test_case
               (Printf.sprintf "run ~project = project (run): %s, chunk %s" store chunk_rows)
               `Slow
               (check_corpora ~store ~chunk_rows))
           [ "1"; "7"; "default" ])
       [ "resident"; "spilled" ]
