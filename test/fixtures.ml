(* Shared test fixtures: a small deterministic schema with known contents,
   plus a tiny Cinema instance and a random-SPJ-query generator for the
   property tests. *)

module Value = Qs_storage.Value
module Schema = Qs_storage.Schema
module Table = Qs_storage.Table
module Columnar = Qs_storage.Columnar
module Catalog = Qs_storage.Catalog
module Query = Qs_query.Query
module Expr = Qs_query.Expr
module Stats_registry = Qs_stats.Stats_registry
module Strategy = Qs_core.Strategy
module Estimator = Qs_stats.Estimator
module Rng = Qs_util.Rng

(* A resident table over the same rows and chunk boundaries as
   [Table.create ?chunk_rows], but with every chunk in typed columns: a
   resident table built from rows holds boxed ones, so the typed side
   of a layout comparison is built by hand. *)
let columnar_table ?(chunk_rows = 65_536) ~name ~schema rows =
  let n = Array.length rows in
  Table.of_chunk_data ~inputs:[] ~name ~schema
    (List.init
       ((n + chunk_rows - 1) / chunk_rows)
       (fun ci ->
         let start = ci * chunk_rows in
         Columnar.of_rows (Array.sub rows start (min chunk_rows (n - start)))))

(* --- storage: chunk size and store travel with the tables ------------ *)

(* [cat] with its tables recut to [chunk_rows]-row chunks and then, with
   [spill = (dir, pool)], moved to chunk files under [dir] read through
   [pool], in place. Every table a query builds from them inherits both
   (see Table). *)
let store ?chunk_rows ?spill cat =
  Catalog.map_tables cat (fun t ->
      let t =
        match chunk_rows with
        | None -> t
        | Some n ->
            Table.create ~chunk_rows:n ~inputs:[] ~name:t.Table.name ~schema:t.Table.schema
              (Table.to_rows t)
      in
      match spill with None -> t | Some (dir, pool) -> Table.spill ~dir ~pool t);
  cat

(* --- a small shop schema with skew and correlation ------------------- *)
(* customers(id, city, vip) ; products(id, kind, price) ;
   orders(id, customer_id, product_id, qty) ; reviews(id, product_id, stars) *)

let shop_catalog ?(n_orders = 2000) ?(columnar = false) ?chunk_rows ?spill () =
  let rng = Rng.create 77 in
  let create ~name ~schema rows =
    if columnar then columnar_table ?chunk_rows ~name ~schema rows
    else Table.create ?chunk_rows ~inputs:[] ~name ~schema rows
  in
  let cat = Catalog.create () in
  let n_cust = 120 and n_prod = 80 and n_rev = 600 in
  let cities = [| "oslo"; "lima"; "pune"; "kiel" |] in
  let customers =
    create ~name:"customers"
      ~schema:
        (Schema.make "customers"
           [ ("id", Value.TInt); ("city", Value.TStr); ("vip", Value.TBool) ])
      (Array.init n_cust (fun i ->
           [|
             Value.Int (i + 1);
             Value.Str cities.(i * 4 / n_cust);
             Value.Bool (i mod 7 = 0);
           |]))
  in
  let kinds = [| "book"; "game"; "tool" |] in
  let products =
    create ~name:"products"
      ~schema:
        (Schema.make "products"
           [ ("id", Value.TInt); ("kind", Value.TStr); ("price", Value.TInt) ])
      (Array.init n_prod (fun i ->
           [|
             Value.Int (i + 1);
             Value.Str kinds.(i * 3 / n_prod);
             Value.Int (5 + (i mod 50));
           |]))
  in
  let orders =
    create ~name:"orders"
      ~schema:
        (Schema.make "orders"
           [
             ("id", Value.TInt); ("customer_id", Value.TInt);
             ("product_id", Value.TInt); ("qty", Value.TInt);
           ])
      (Array.init n_orders (fun i ->
           (* skewed: low customer/product ids are hot, and correlated *)
           let c = 1 + (Rng.int rng n_cust * Rng.int rng n_cust / n_cust) in
           let p = 1 + min (n_prod - 1) (c * n_prod / n_cust + Rng.int rng 10) in
           [| Value.Int (i + 1); Value.Int c; Value.Int p; Value.Int (1 + Rng.int rng 9) |]))
  in
  let reviews =
    create ~name:"reviews"
      ~schema:
        (Schema.make "reviews"
           [ ("id", Value.TInt); ("product_id", Value.TInt); ("stars", Value.TInt) ])
      (Array.init n_rev (fun i ->
           let p = 1 + (Rng.int rng n_prod * Rng.int rng n_prod / n_prod) in
           [| Value.Int (i + 1); Value.Int p; Value.Int (1 + Rng.int rng 5) |]))
  in
  Catalog.add_table cat ~pk:"id" customers;
  Catalog.add_table cat ~pk:"id" products;
  Catalog.add_table cat ~pk:"id" orders;
  Catalog.add_table cat ~pk:"id" reviews;
  Catalog.add_fk cat ~from_table:"orders" ~from_column:"customer_id" ~to_table:"customers"
    ~to_column:"id";
  Catalog.add_fk cat ~from_table:"orders" ~from_column:"product_id" ~to_table:"products"
    ~to_column:"id";
  Catalog.add_fk cat ~from_table:"reviews" ~from_column:"product_id" ~to_table:"products"
    ~to_column:"id";
  Catalog.build_indexes cat Catalog.Pk_fk;
  store ?spill cat

let shop_ctx ?n_orders ?spans ?chunk_rows ?spill () =
  let cat = shop_catalog ?n_orders ?chunk_rows ?spill () in
  let registry = Stats_registry.create cat in
  (cat, Strategy.make_ctx ?spans registry Estimator.default)

(* the 4-way shop join with some filters; known non-empty *)
let shop_query ?(name = "shopq") () =
  Query.make ~name
    ~output:
      [ { Expr.rel = "c"; name = "city" }; { Expr.rel = "p"; name = "kind" } ]
    [
      { Query.alias = "c"; table = "customers" };
      { Query.alias = "o"; table = "orders" };
      { Query.alias = "p"; table = "products" };
      { Query.alias = "r"; table = "reviews" };
    ]
    [
      Expr.eq (Expr.col "o" "customer_id") (Expr.col "c" "id");
      Expr.eq (Expr.col "o" "product_id") (Expr.col "p" "id");
      Expr.eq (Expr.col "r" "product_id") (Expr.col "p" "id");
      Expr.Cmp (Expr.Eq, Expr.col "c" "city", Expr.vstr "oslo");
      Expr.Cmp (Expr.Ge, Expr.col "r" "stars", Expr.vint 3);
    ]

(* --- random SPJ queries over the shop schema for property tests ------- *)

let random_shop_query rng =
  let with_reviews = Rng.bool rng in
  let rels =
    [
      { Query.alias = "c"; table = "customers" };
      { Query.alias = "o"; table = "orders" };
      { Query.alias = "p"; table = "products" };
    ]
    @ (if with_reviews then [ { Query.alias = "r"; table = "reviews" } ] else [])
  in
  let preds =
    [
      Expr.eq (Expr.col "o" "customer_id") (Expr.col "c" "id");
      Expr.eq (Expr.col "o" "product_id") (Expr.col "p" "id");
    ]
    @ (if with_reviews then [ Expr.eq (Expr.col "r" "product_id") (Expr.col "p" "id") ]
       else [])
    @ (if Rng.bool rng then
         [ Expr.Cmp (Expr.Eq, Expr.col "c" "city",
                     Expr.vstr (Rng.choice rng [| "oslo"; "lima"; "pune"; "kiel" |])) ]
       else [])
    @ (if Rng.bool rng then
         [ Expr.Cmp (Expr.Eq, Expr.col "p" "kind",
                     Expr.vstr (Rng.choice rng [| "book"; "game"; "tool" |])) ]
       else [])
    @ (if Rng.bool rng then
         [ Expr.Cmp (Expr.Le, Expr.col "o" "qty", Expr.vint (Rng.in_range rng 2 9)) ]
       else [])
    @
    if with_reviews && Rng.bool rng then
      [ Expr.Cmp (Expr.Ge, Expr.col "r" "stars", Expr.vint (Rng.in_range rng 1 5)) ]
    else []
  in
  let output =
    if Rng.bool rng then []
    else [ { Expr.rel = "c"; name = "city" }; { Expr.rel = "p"; name = "id" } ]
  in
  Query.make ~name:(Printf.sprintf "rand_%d" (Rng.int rng 100000)) ~output rels preds

(* a tiny Cinema instance shared by the heavier integration tests *)
let cinema = lazy (
  let cat = Qs_workload.Cinema.build ~scale:0.08 ~seed:3 () in
  Catalog.build_indexes cat Catalog.Pk_fk;
  cat)

let cinema_queries = lazy (
  Qs_workload.Cinema.queries (Lazy.force cinema) ~seed:4 ~n:12)

(* sorted multiset of rows with columns ordered by qualified name, so two
   plans producing the same relation in different column orders compare
   equal *)
let canonical_rows (t : Table.t) =
  let order =
    Array.to_list t.Table.schema
    |> List.mapi (fun i c -> (Schema.column_id c, i))
    |> List.sort compare
  in
  Table.fold
    (fun acc row -> List.map (fun (_, i) -> Value.to_string row.(i)) order :: acc)
    [] t
  |> List.sort compare

let tables_equal a b = canonical_rows a = canonical_rows b

(* Reference per-node cardinalities of a plan, from naive execution: each
   scan and join node produces the rows of the sub-fragment over its
   leaves. The inner scan of an index nested-loop join is consumed
   through the index and counts matched (outer, inner) pairs, so its
   reference is the outer sub-fragment joined with the inner input on
   the indexed equality alone. *)
let naive_node_rows frag plan =
  let module Physical = Qs_plan.Physical in
  let module Fragment = Qs_stats.Fragment in
  let cache = Qs_exec.Naive.make_cache () in
  let count f = Qs_exec.Naive.count ~cache f in
  let sub (p : Physical.t) = Fragment.restrict frag (Physical.leaves p) in
  let rec go acc (p : Physical.t) =
    let acc = (p.Physical.id, count (sub p)) :: acc in
    match p.Physical.node with
    | Physical.Scan _ -> acc
    | Physical.Join j -> (
        let acc = go acc j.Physical.left in
        match j.Physical.index with
        | Some (_, outer_key, inner_key) ->
            let indexed = Expr.eq (Expr.Col outer_key) (Expr.Col inner_key) in
            let pairs =
              {
                (sub p) with
                Fragment.preds = indexed :: (sub j.Physical.left).Fragment.preds;
              }
            in
            (j.Physical.right.Physical.id, count pairs) :: acc
        | None -> go acc j.Physical.right)
  in
  List.rev (go [] plan)

(* every node's executed cardinality equals its naive reference *)
let check_node_rows ~what frag plan (stats : (int, int) Hashtbl.t) =
  List.iter
    (fun (id, expected) ->
      match Hashtbl.find_opt stats id with
      | Some got when got = expected -> ()
      | got ->
          Alcotest.failf "%s: node %d has %s rows, naive has %d" what id
            (Option.fold ~none:"no" ~some:string_of_int got)
            expected)
    (naive_node_rows frag plan)
