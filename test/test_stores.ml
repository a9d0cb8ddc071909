(* Storage settings travel with the tables. A table built from other
   tables is spilled to the home (directory and buffer pool) of its
   first input that has one, or is resident when none has; it is cut
   at its first input's chunk size. One case per derived-table
   constructor checks that; then a resident and a spilled catalog are
   served by two servers on two domains at once: the spilled run's
   results, temps and aggregates stay on its catalog's pool, the
   resident run stays in memory and is charged no buffer-pool faults,
   and both give the naive executor's digests. *)

module Value = Qs_storage.Value
module Schema = Qs_storage.Schema
module Table = Qs_storage.Table
module Buffer_pool = Qs_storage.Buffer_pool
module Expr = Qs_query.Expr
module Query = Qs_query.Query
module Logical = Qs_plan.Logical
module Physical = Qs_plan.Physical
module Fragment = Qs_stats.Fragment
module Estimator = Qs_stats.Estimator
module Stats_registry = Qs_stats.Stats_registry
module Executor = Qs_exec.Executor
module Naive = Qs_exec.Naive
module Relop = Qs_exec.Relop
module Strategy = Qs_core.Strategy
module Driver = Qs_core.Driver
module Server = Qs_serve.Server
module Flight = Qs_obs.Flight

open Test_pushdown

(* a(k, v) and b(k, w): 40 and 30 rows in 4-row chunks, keys 0..6 *)
let pair () =
  let mk name other n =
    Table.create ~chunk_rows:4 ~inputs:[] ~name
      ~schema:(Schema.make name [ ("k", Value.TInt); (other, Value.TInt) ])
      (Array.init n (fun i -> [| Value.Int (i mod 7); Value.Int (i * 3 mod 11) |]))
  in
  (mk "a" "v" 40, mk "b" "w" 30)

let input = Test_executor.fragment_input
let on_k = on (col "a" "k") (col "b" "k")
let k_lt_3 rel = [ Expr.Cmp (Expr.Lt, Expr.Col (col rel "k"), Expr.vint 3) ]
let count_star = [ { Logical.fn = Logical.Count_star; arg = None; label = "n" } ]

(* Each derived-table constructor applied to a(k, v) and b(k, w), and
   whether it reads b. *)
let constructors : (string * bool * (Table.t -> Table.t -> Table.t)) list =
  [
    ( "executor join sink",
      true,
      fun a b -> fst (Executor.run (join Physical.Hash (scan a []) (scan b []) [ on_k ])) );
    ("filter_input", false, fun a _ -> Executor.filter_input (input ~filters:(k_lt_3 "a") a));
    ("Executor.project", false, fun a _ -> Executor.project a [ col "a" "v" ]);
    ("Temp.materialize", false, fun a _ -> Qs_exec.Temp.materialize ~name:"T1" ~keep:[ col "a" "k" ] a);
    ( "Relop.aggregate",
      false,
      fun a _ -> Relop.aggregate ~name:"g" ~group_by:[ col "a" "v" ] ~aggs:count_star a );
    ("Relop.union_all", true, fun a b -> Relop.union_all ~name:"u" [ a; b ]);
    ( "Relop.semi_join",
      true,
      fun a b -> Relop.semi_join ~name:"s" ~anti:false ~left:a ~right:b ~on:[ on_k ] );
    ( "Relop.semi_join ~anti",
      true,
      fun a b ->
        Relop.semi_join ~name:"s" ~anti:true ~left:a ~right:b ~on:[ on (col "a" "v") (col "b" "k") ] );
    ("Executor.cartesian", true, fun a b -> Executor.cartesian ~name:"x" [ a; b ]);
    ( "Naive.rows",
      true,
      fun a b ->
        Naive.rows
          { Fragment.inputs = [ input a; input b ]; preds = [ on_k ]; output = [ col "b" "w" ] } );
  ]

let files dir = Array.length (Sys.readdir dir)

let on_pool pool t = match t.Table.home with Some (_, p) -> p == pool | None -> false

let check_inherits reads_b build () =
  let a, b = pair () in
  let resident = build a b in
  Alcotest.(check bool) "non-empty" true (Table.n_rows resident > 0);
  Alcotest.(check bool) "resident inputs: resident" false (Table.spilled resident);
  Alcotest.(check int) "the first input's chunk size" 4 resident.Table.chunk_rows;
  Table.with_scratch_home ~capacity:2 (fun ~dir ~pool ->
      let sa = Table.spill ~dir ~pool a and sb = Table.spill ~dir ~pool b in
      (* both inputs spilled, the first only, the second only *)
      List.iter
        (fun (what, a, b, spilled) ->
          let before = files dir in
          let out = build a b in
          Alcotest.(check bool) (what ^ ": spilled") spilled (Table.spilled out);
          Alcotest.(check bool) (what ^ ": the input's pool") spilled (on_pool pool out);
          Alcotest.(check bool) (what ^ ": written under the input's dir") spilled
            (files dir > before);
          Alcotest.(check string) (what ^ ": same rows") (Table.digest resident) (Table.digest out))
        [
          ("both spilled", sa, sb, true);
          ("first spilled", sa, b, true);
          ("second spilled", a, sb, reads_b);
        ];
      Alcotest.(check int) "no pins leaked" 0 (Buffer_pool.pinned pool))

(* the scratch cache hands back the same spilled scan *)
let test_filter_input_cache () =
  let a, _ = pair () in
  Table.with_scratch_home ~capacity:2 (fun ~dir ~pool ->
      let i = input ~filters:(k_lt_3 "a") (Table.spill ~dir ~pool a) in
      let first = Executor.filter_input i in
      Alcotest.(check bool) "spilled" true (Table.spilled first);
      Alcotest.(check bool) "cached" true (Executor.filter_input i == first))

(* an empty scan of a spilled table has no frame to write but keeps
   its home, so the one-row global aggregate over it is spilled there *)
let test_empty_keeps_home () =
  let a, _ = pair () in
  Table.with_scratch_home ~capacity:2 (fun ~dir ~pool ->
      let none = [ Expr.Cmp (Expr.Lt, Expr.Col (col "a" "k"), Expr.vint 0) ] in
      let empty = Executor.filter_input (input ~filters:none (Table.spill ~dir ~pool a)) in
      Alcotest.(check int) "empty" 0 (Table.n_rows empty);
      Alcotest.(check bool) "no frame" false (Table.spilled empty);
      Alcotest.(check bool) "home kept" true (on_pool pool empty);
      let g = Relop.aggregate ~name:"g" ~group_by:[] ~aggs:count_star empty in
      Alcotest.(check int) "one row" 1 (Table.n_rows g);
      Alcotest.(check bool) "spilled" true (Table.spilled g);
      Alcotest.(check bool) "on the pool" true (on_pool pool g))

(* a workload built with a home writes every base table there, with
   the rows of the resident build *)
let test_spilled_build () =
  let resident = Qs_workload.Starbench.build ~scale:0.05 ~seed:3 () in
  Table.with_scratch_home ~capacity:2 (fun ~dir ~pool ->
      let spilled = Qs_workload.Starbench.build ~scale:0.05 ~spill:(dir, pool) ~seed:3 () in
      List.iter
        (fun t ->
          let name = t.Table.name in
          Alcotest.(check bool) (name ^ ": spilled") true (Table.spilled t);
          Alcotest.(check bool) (name ^ ": on the pool") true (on_pool pool t);
          Alcotest.(check string) (name ^ ": same rows")
            (Table.digest (Qs_storage.Catalog.table resident name))
            (Table.digest t))
        (Qs_storage.Catalog.tables spilled))

(* an aggregate of small chunks keeps its input's size: 11 groups of a
   4-row-chunk input make three chunks *)
let test_aggregate_chunk_size () =
  let a, _ = pair () in
  let g =
    Relop.aggregate ~name:"g" ~group_by:[ col "a" "v" ] ~aggs:count_star a
  in
  Alcotest.(check int) "groups" 11 (Table.n_rows g);
  Alcotest.(check int) "chunks" 3 (Table.n_chunks g)

(* --- two catalogs, two servers, two domains -------------------------- *)

(* QuerySplit, keeping every result table it hands the server and
   counting the temps it materialized *)
let recording () =
  let seen = ref [] and temps = ref 0 in
  let qs = Qs_core.Querysplit.strategy Qs_core.Querysplit.default_config in
  ( {
      qs with
      Strategy.run =
        (fun ctx q ->
          let o = qs.Strategy.run ctx q in
          seen := o.Strategy.result :: !seen;
          List.iter
            (fun (i : Strategy.iteration) -> if i.Strategy.materialized then incr temps)
            o.Strategy.iterations;
          o);
    },
    seen,
    temps )

let agg_tree =
  Logical.Agg
    {
      name = "by_city";
      group_by = [ col "c" "city" ];
      aggs = count_star;
      input = Logical.Spj (Fixtures.shop_query ~name:"agg_in" ());
    }

type side = {
  results : Server.result list;
  flights : Flight.record list;
  tables : Table.t list;  (** served results, the aggregate and its pseudo relations *)
  temps : int;  (** temps QuerySplit materialized *)
  agg_digest : string;
}

(* serve [queries] over [cat] on a fresh domain, then run the aggregate
   tree there *)
let serve cat queries =
  Domain.spawn (fun () ->
      let strategy, seen, temps = recording () in
      let registry = Stats_registry.create cat in
      Qs_util.Pool.with_pool ~domains:1 (fun pool ->
          let server = Server.create ~strategy ~pool registry Estimator.default in
          let tickets = List.map (fun q -> Server.submit server ~session:"s" q) queries in
          let results = List.map (Server.await server) tickets in
          Server.drain server;
          let ctx = Strategy.make_ctx registry Estimator.default in
          let agg = (Driver.run strategy ctx agg_tree).Strategy.result in
          let pseudo = Hashtbl.fold (fun _ (t, _) acc -> t :: acc) ctx.Strategy.pseudo [] in
          {
            results;
            flights = (Server.telemetry_snapshot server).Qs_obs.Telemetry.s_recent;
            tables = (agg :: pseudo) @ !seen;
            temps = !temps;
            agg_digest = Table.digest agg;
          }))

let two_servers =
  lazy
    (let cat = Fixtures.shop_catalog ~n_orders:400 ~chunk_rows:32 () in
     let registry = Stats_registry.create cat in
     let ctx = Strategy.make_ctx registry Estimator.default in
     let queries =
       List.filter
         (fun q -> Naive.count (Strategy.fragment_of_query ctx q) <= 20_000)
         (Qs_workload.Fuzz.queries cat ~seed:20230617 ~n:40 ())
     in
     let naive =
       List.map
         (fun (q : Query.t) ->
           let naive = Naive.rows (Strategy.fragment_of_query ctx q) in
           (q.Query.name, Table.digest (Executor.project ~name:q.Query.name naive q.Query.output)))
         queries
     in
     (* Naive has no entry point for a logical tree: the aggregate's
        reference is a resident run of the Default strategy *)
     let naive_agg = Table.digest (Driver.run Qs_core.Static.default ctx agg_tree).Strategy.result in
     Table.with_scratch_home ~capacity:4 (fun ~dir ~pool ->
         let spilled_cat =
           Fixtures.shop_catalog ~n_orders:400 ~chunk_rows:32 ~spill:(dir, pool) ()
         in
         let base_files = files dir in
         let r = serve (Fixtures.shop_catalog ~n_orders:400 ~chunk_rows:32 ()) queries in
         let s = serve spilled_cat queries in
         let resident = Domain.join r and spilled = Domain.join s in
         (naive, naive_agg, resident, spilled, pool, files dir - base_files)))

let test_two_servers_stores () =
  let naive, naive_agg, resident, spilled, pool, written = Lazy.force two_servers in
  Alcotest.(check bool) "queries served" true (List.length naive > 10);
  List.iter
    (fun (side, (s : side)) ->
      List.iter2
        (fun (name, want) (r : Server.result) ->
          Alcotest.(check string) (Printf.sprintf "%s %s = naive" side name) want
            (Option.value r.Server.digest ~default:"none"))
        naive s.results;
      Alcotest.(check string) (side ^ " aggregate = naive") naive_agg s.agg_digest)
    [ ("resident", resident); ("spilled", spilled) ];
  List.iter
    (fun t ->
      Alcotest.(check bool) (t.Table.name ^ " spilled") (Table.n_rows t > 0) (Table.spilled t);
      Alcotest.(check bool) (t.Table.name ^ " on the catalog's pool") true (on_pool pool t))
    spilled.tables;
  List.iter
    (fun t -> Alcotest.(check bool) (t.Table.name ^ " resident") false (Table.spilled t))
    resident.tables;
  (* every temp is a join output or a projection of one: a table of its
     own, so one file at least per temp under the catalog's dir *)
  Alcotest.(check bool) "QuerySplit materialized temps" true (spilled.temps > 0);
  Alcotest.(check int) "as many temps resident" spilled.temps resident.temps;
  Alcotest.(check bool) "temps written under the spilled catalog's dir" true
    (written >= spilled.temps);
  Alcotest.(check int) "no pins leaked" 0 (Buffer_pool.pinned pool)

(* each server reads the pools of its own catalog: the resident one is
   charged nothing while the spilled one faults beside it *)
let test_two_servers_faults () =
  let _, _, resident, spilled, _, _ = Lazy.force two_servers in
  let counters (f : Flight.record) = f.Flight.r_counters in
  List.iter
    (fun f ->
      Alcotest.(check int) "resident flight faults" 0 (counters f).Flight.faults;
      Alcotest.(check int) "resident flight bypasses" 0 (counters f).Flight.bypasses)
    resident.flights;
  Alcotest.(check bool) "resident flights recorded" true (resident.flights <> []);
  Alcotest.(check bool) "the spilled server is charged its faults" true
    (List.exists (fun f -> (counters f).Flight.faults > 0) spilled.flights)

let suite =
  List.map
    (fun (name, reads_b, build) ->
      Alcotest.test_case ("inherits its store: " ^ name) `Quick (check_inherits reads_b build))
    constructors
  @ [
      Alcotest.test_case "filter_input cache keeps the spilled scan" `Quick test_filter_input_cache;
      Alcotest.test_case "an empty table keeps its home" `Quick test_empty_keeps_home;
      Alcotest.test_case "aggregate keeps its input's chunk size" `Quick test_aggregate_chunk_size;
      Alcotest.test_case "a workload built with a home spills every table" `Quick test_spilled_build;
      Alcotest.test_case "two servers, resident and spilled: stores and digests" `Quick
        test_two_servers_stores;
      Alcotest.test_case "two servers: resident flights charged no faults" `Quick
        test_two_servers_faults;
    ]
