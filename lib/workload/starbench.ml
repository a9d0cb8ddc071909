module Catalog = Qs_storage.Catalog
module Value = Qs_storage.Value
module Query = Qs_query.Query
module Expr = Qs_query.Expr
module Logical = Qs_plan.Logical
module Rng = Qs_util.Rng
module D = Datagen

let sz scale base = max 5 (int_of_float (float_of_int base *. scale))

let build ?(scale = 1.0) ?spill ~seed () =
  let rng = Rng.create seed in
  let cat = Catalog.create () in
  let table = D.table ?spill in
  let n_supp = sz scale 200 in
  let n_cust = sz scale 1500 in
  let n_part = sz scale 2000 in
  let n_ps = sz scale 8000 in
  let n_ord = sz scale 15000 in
  let n_li = sz scale 60000 in

  let regions = [| "africa"; "america"; "asia"; "europe"; "middle east" |] in
  let region =
    table ~name:"region"
      [
        ("r_regionkey", Value.TInt, D.serial 5);
        ("r_name", Value.TStr, Array.map (fun s -> Value.Str s) regions);
      ]
  in
  let nation =
    table ~name:"nation"
      [
        ("n_nationkey", Value.TInt, D.serial 25);
        ("n_name", Value.TStr, Array.init 25 (fun i -> Value.Str (Printf.sprintf "nation%02d" i)));
        ("n_regionkey", Value.TInt, Array.init 25 (fun i -> Value.Int (1 + (i mod 5))));
      ]
  in
  let supplier =
    table ~name:"supplier"
      [
        ("s_suppkey", Value.TInt, D.serial n_supp);
        ("s_name", Value.TStr, Array.init n_supp (fun i -> Value.Str (Printf.sprintf "supplier%04d" i)));
        ("s_nationkey", Value.TInt, D.uniform_fk rng ~n:n_supp ~domain:25);
        ("s_acctbal", Value.TFloat, Array.init n_supp (fun _ -> Value.Float (Rng.float rng 10000.0)));
      ]
  in
  let segments = [| "building"; "automobile"; "machinery"; "household"; "furniture" |] in
  let customer =
    table ~name:"customer"
      [
        ("c_custkey", Value.TInt, D.serial n_cust);
        ("c_nationkey", Value.TInt, D.uniform_fk rng ~n:n_cust ~domain:25);
        ( "c_mktsegment",
          Value.TStr,
          Array.init n_cust (fun _ -> Value.Str (Rng.choice rng segments)) );
        ("c_acctbal", Value.TFloat, Array.init n_cust (fun _ -> Value.Float (Rng.float rng 10000.0)));
      ]
  in
  let brands = Array.init 25 (fun i -> Printf.sprintf "brand%02d" i) in
  let types = [| "economy"; "standard"; "promo"; "small"; "large"; "medium" |] in
  let part =
    table ~name:"part"
      [
        ("p_partkey", Value.TInt, D.serial n_part);
        ("p_brand", Value.TStr, Array.init n_part (fun _ -> Value.Str (Rng.choice rng brands)));
        ("p_type", Value.TStr, Array.init n_part (fun _ -> Value.Str (Rng.choice rng types)));
        ("p_size", Value.TInt, Array.init n_part (fun _ -> Value.Int (1 + Rng.int rng 50)));
        ("p_retailprice", Value.TFloat, Array.init n_part (fun _ -> Value.Float (900.0 +. Rng.float rng 1100.0)));
      ]
  in
  let partsupp =
    table ~name:"partsupp"
      [
        ("ps_id", Value.TInt, D.serial n_ps);
        ("ps_partkey", Value.TInt, D.uniform_fk rng ~n:n_ps ~domain:n_part);
        ("ps_suppkey", Value.TInt, D.uniform_fk rng ~n:n_ps ~domain:n_supp);
        ("ps_supplycost", Value.TFloat, Array.init n_ps (fun _ -> Value.Float (Rng.float rng 1000.0)));
        ("ps_availqty", Value.TInt, Array.init n_ps (fun _ -> Value.Int (Rng.int rng 10000)));
      ]
  in
  let priorities = [| "1-urgent"; "2-high"; "3-medium"; "4-low"; "5-none" |] in
  let orders =
    table ~name:"orders"
      [
        ("o_orderkey", Value.TInt, D.serial n_ord);
        ("o_custkey", Value.TInt, D.uniform_fk rng ~n:n_ord ~domain:n_cust);
        ("o_orderdate", Value.TInt, Array.init n_ord (fun _ -> Value.Int (1 + Rng.int rng 2400)));
        ( "o_orderpriority",
          Value.TStr,
          Array.init n_ord (fun _ -> Value.Str (Rng.choice rng priorities)) );
        ("o_totalprice", Value.TFloat, Array.init n_ord (fun _ -> Value.Float (1000.0 +. Rng.float rng 400000.0)));
      ]
  in
  let modes = [| "air"; "ship"; "rail"; "truck"; "mail" |] in
  let flags = [| "a"; "n"; "r" |] in
  let l_order = D.uniform_fk rng ~n:n_li ~domain:n_ord in
  let lineitem =
    table ~name:"lineitem"
      [
        ("l_id", Value.TInt, D.serial n_li);
        ("l_orderkey", Value.TInt, l_order);
        ("l_partkey", Value.TInt, D.uniform_fk rng ~n:n_li ~domain:n_part);
        ("l_suppkey", Value.TInt, D.uniform_fk rng ~n:n_li ~domain:n_supp);
        ("l_quantity", Value.TInt, Array.init n_li (fun _ -> Value.Int (1 + Rng.int rng 50)));
        ("l_extendedprice", Value.TFloat, Array.init n_li (fun _ -> Value.Float (Rng.float rng 100000.0)));
        ("l_discount", Value.TFloat, Array.init n_li (fun _ -> Value.Float (0.1 *. Rng.float rng 1.0)));
        ("l_shipdate", Value.TInt, Array.init n_li (fun _ -> Value.Int (1 + Rng.int rng 2500)));
        ("l_commitdate", Value.TInt, Array.init n_li (fun _ -> Value.Int (1 + Rng.int rng 2500)));
        ("l_receiptdate", Value.TInt, Array.init n_li (fun _ -> Value.Int (1 + Rng.int rng 2500)));
        ("l_returnflag", Value.TStr, Array.init n_li (fun _ -> Value.Str (Rng.choice rng flags)));
        ("l_shipmode", Value.TStr, Array.init n_li (fun _ -> Value.Str (Rng.choice rng modes)));
      ]
  in
  List.iter
    (fun (tbl, pk) -> Catalog.add_table cat ~pk tbl)
    [
      (region, "r_regionkey"); (nation, "n_nationkey"); (supplier, "s_suppkey");
      (customer, "c_custkey"); (part, "p_partkey"); (partsupp, "ps_id");
      (orders, "o_orderkey"); (lineitem, "l_id");
    ];
  List.iter
    (fun (ft, fc, tt, tc) ->
      Catalog.add_fk cat ~from_table:ft ~from_column:fc ~to_table:tt ~to_column:tc)
    [
      ("nation", "n_regionkey", "region", "r_regionkey");
      ("supplier", "s_nationkey", "nation", "n_nationkey");
      ("customer", "c_nationkey", "nation", "n_nationkey");
      ("partsupp", "ps_partkey", "part", "p_partkey");
      ("partsupp", "ps_suppkey", "supplier", "s_suppkey");
      ("orders", "o_custkey", "customer", "c_custkey");
      ("lineitem", "l_orderkey", "orders", "o_orderkey");
      ("lineitem", "l_partkey", "part", "p_partkey");
      ("lineitem", "l_suppkey", "supplier", "s_suppkey");
    ];
  cat

(* ------------------------------------------------------------------ *)
(* The 22 queries                                                      *)
(* ------------------------------------------------------------------ *)

let c = Expr.col
let rel alias table = { Query.alias; table }
let cref r n = { Expr.rel = r; Expr.name = n }

let agg ?(group = []) name aggs input = Logical.Agg { name; group_by = group; aggs; input }

let sum label s = { Logical.fn = Logical.Sum; arg = Some s; label }
let avg label s = { Logical.fn = Logical.Avg; arg = Some s; label }
let cnt label = { Logical.fn = Logical.Count_star; arg = None; label }
let mn label s = { Logical.fn = Logical.Min; arg = Some s; label }
let _mx label s = { Logical.fn = Logical.Max; arg = Some s; label }

let revenue =
  Expr.Arith
    ( Expr.Mul,
      c "l" "l_extendedprice",
      Expr.Arith (Expr.Sub, Expr.vfloat 1.0, c "l" "l_discount") )

let queries _cat ~seed =
  let rng = Rng.create seed in
  let date d = Expr.vint d in
  let rand_seg () =
    Rng.choice rng [| "building"; "automobile"; "machinery"; "household"; "furniture" |]
  in
  let rand_mode () = Rng.choice rng [| "air"; "ship"; "rail"; "truck"; "mail" |] in
  let rand_brand () = Printf.sprintf "brand%02d" (Rng.int rng 25) in
  let spj name rels preds = Logical.Spj (Query.make ~name rels preds) in
  [
    (* q1: pricing summary over lineitem *)
    agg "star_q1"
      ~group:[ cref "l" "l_returnflag" ]
      [ sum "sum_qty" (c "l" "l_quantity"); avg "avg_price" (c "l" "l_extendedprice"); cnt "count_order" ]
      (spj "star_q1_spj" [ rel "l" "lineitem" ]
         [ Expr.Cmp (Expr.Le, c "l" "l_shipdate", date 2300) ]);
    (* q2: min supplycost per brand across part/partsupp/supplier/nation *)
    agg "star_q2"
      ~group:[ cref "p" "p_brand" ]
      [ mn "min_cost" (c "ps" "ps_supplycost") ]
      (spj "star_q2_spj"
         [ rel "p" "part"; rel "ps" "partsupp"; rel "s" "supplier"; rel "n" "nation" ]
         [
           Expr.eq (c "ps" "ps_partkey") (c "p" "p_partkey");
           Expr.eq (c "ps" "ps_suppkey") (c "s" "s_suppkey");
           Expr.eq (c "s" "s_nationkey") (c "n" "n_nationkey");
           Expr.Cmp (Expr.Lt, c "p" "p_size", Expr.vint 20);
         ]);
    (* q3: revenue of a market segment *)
    agg "star_q3"
      ~group:[ cref "o" "o_orderpriority" ]
      [ sum "revenue" revenue ]
      (spj "star_q3_spj"
         [ rel "cu" "customer"; rel "o" "orders"; rel "l" "lineitem" ]
         [
           Expr.eq (c "o" "o_custkey") (c "cu" "c_custkey");
           Expr.eq (c "l" "l_orderkey") (c "o" "o_orderkey");
           Expr.Cmp (Expr.Eq, c "cu" "c_mktsegment", Expr.vstr (rand_seg ()));
           Expr.Cmp (Expr.Lt, c "o" "o_orderdate", date 1600);
           Expr.Cmp (Expr.Gt, c "l" "l_shipdate", date 1600);
         ]);
    (* q4: order priority checking — EXISTS *)
    agg "star_q4"
      ~group:[ cref "q4s" "o_o_orderpriority" ]
      [ cnt "order_count" ]
      (Logical.Semi
         {
           name = "q4s";
           left =
             spj "star_q4_o" [ rel "o" "orders" ]
               [
                 Expr.Between (c "o" "o_orderdate", Value.Int 1200, Value.Int 1500);
               ];
           right =
             spj "star_q4_l" [ rel "l" "lineitem" ]
               [ Expr.Cmp (Expr.Lt, c "l" "l_commitdate", c "l" "l_receiptdate") ];
           on = [ Expr.eq (c "l" "l_orderkey") (c "o" "o_orderkey") ];
         });
    (* q5: local supplier volume *)
    agg "star_q5"
      ~group:[ cref "n" "n_name" ]
      [ sum "revenue" revenue ]
      (spj "star_q5_spj"
         [
           rel "cu" "customer"; rel "o" "orders"; rel "l" "lineitem";
           rel "s" "supplier"; rel "n" "nation"; rel "r" "region";
         ]
         [
           Expr.eq (c "o" "o_custkey") (c "cu" "c_custkey");
           Expr.eq (c "l" "l_orderkey") (c "o" "o_orderkey");
           Expr.eq (c "l" "l_suppkey") (c "s" "s_suppkey");
           Expr.eq (c "s" "s_nationkey") (c "n" "n_nationkey");
           Expr.eq (c "n" "n_regionkey") (c "r" "r_regionkey");
           Expr.Cmp (Expr.Eq, c "r" "r_name", Expr.vstr "asia");
           Expr.Between (c "o" "o_orderdate", Value.Int 800, Value.Int 1400);
         ]);
    (* q6: forecast revenue change (single table) *)
    agg "star_q6"
      [ sum "revenue" (Expr.Arith (Expr.Mul, c "l" "l_extendedprice", c "l" "l_discount")) ]
      (spj "star_q6_spj" [ rel "l" "lineitem" ]
         [
           Expr.Between (c "l" "l_shipdate", Value.Int 1000, Value.Int 1365);
           Expr.Between (c "l" "l_discount", Value.Float 0.05, Value.Float 0.07);
           Expr.Cmp (Expr.Lt, c "l" "l_quantity", Expr.vint 24);
         ]);
    (* q7: volume shipping between two nations *)
    agg "star_q7"
      ~group:[ cref "n1" "n_name" ]
      [ sum "revenue" revenue ]
      (spj "star_q7_spj"
         [
           rel "s" "supplier"; rel "l" "lineitem"; rel "o" "orders";
           rel "cu" "customer"; rel "n1" "nation"; rel "n2" "nation";
         ]
         [
           Expr.eq (c "l" "l_suppkey") (c "s" "s_suppkey");
           Expr.eq (c "l" "l_orderkey") (c "o" "o_orderkey");
           Expr.eq (c "o" "o_custkey") (c "cu" "c_custkey");
           Expr.eq (c "s" "s_nationkey") (c "n1" "n_nationkey");
           Expr.eq (c "cu" "c_nationkey") (c "n2" "n_nationkey");
           Expr.In_list (c "n2" "n_name", [ Value.Str "nation03"; Value.Str "nation11" ]);
         ]);
    (* q8: market share style *)
    agg "star_q8"
      ~group:[ cref "r" "r_name" ]
      [ sum "volume" revenue ]
      (spj "star_q8_spj"
         [
           rel "p" "part"; rel "l" "lineitem"; rel "o" "orders"; rel "cu" "customer";
           rel "n" "nation"; rel "r" "region";
         ]
         [
           Expr.eq (c "l" "l_partkey") (c "p" "p_partkey");
           Expr.eq (c "l" "l_orderkey") (c "o" "o_orderkey");
           Expr.eq (c "o" "o_custkey") (c "cu" "c_custkey");
           Expr.eq (c "cu" "c_nationkey") (c "n" "n_nationkey");
           Expr.eq (c "n" "n_regionkey") (c "r" "r_regionkey");
           Expr.Cmp (Expr.Eq, c "p" "p_type", Expr.vstr "economy");
         ]);
    (* q9: product type profit *)
    agg "star_q9"
      ~group:[ cref "n" "n_name" ]
      [ sum "profit" revenue ]
      (spj "star_q9_spj"
         [
           rel "p" "part"; rel "s" "supplier"; rel "l" "lineitem";
           rel "ps" "partsupp"; rel "n" "nation";
         ]
         [
           Expr.eq (c "l" "l_suppkey") (c "s" "s_suppkey");
           Expr.eq (c "ps" "ps_suppkey") (c "l" "l_suppkey");
           Expr.eq (c "ps" "ps_partkey") (c "l" "l_partkey");
           Expr.eq (c "l" "l_partkey") (c "p" "p_partkey");
           Expr.eq (c "s" "s_nationkey") (c "n" "n_nationkey");
           Expr.Like (c "p" "p_brand", "brand0%");
         ]);
    (* q10: returned item reporting *)
    agg "star_q10"
      ~group:[ cref "n" "n_name" ]
      [ sum "revenue" revenue; cnt "customers" ]
      (spj "star_q10_spj"
         [ rel "cu" "customer"; rel "o" "orders"; rel "l" "lineitem"; rel "n" "nation" ]
         [
           Expr.eq (c "o" "o_custkey") (c "cu" "c_custkey");
           Expr.eq (c "l" "l_orderkey") (c "o" "o_orderkey");
           Expr.eq (c "cu" "c_nationkey") (c "n" "n_nationkey");
           Expr.Cmp (Expr.Eq, c "l" "l_returnflag", Expr.vstr "r");
           Expr.Between (c "o" "o_orderdate", Value.Int 600, Value.Int 900);
         ]);
    (* q11: important stock (partsupp by nation) *)
    agg "star_q11"
      ~group:[ cref "ps" "ps_partkey" ]
      [ sum "value" (Expr.Arith (Expr.Mul, c "ps" "ps_supplycost", c "ps" "ps_availqty")) ]
      (spj "star_q11_spj"
         [ rel "ps" "partsupp"; rel "s" "supplier"; rel "n" "nation" ]
         [
           Expr.eq (c "ps" "ps_suppkey") (c "s" "s_suppkey");
           Expr.eq (c "s" "s_nationkey") (c "n" "n_nationkey");
           Expr.Cmp (Expr.Eq, c "n" "n_name", Expr.vstr "nation07");
         ]);
    (* q12: shipping modes *)
    agg "star_q12"
      ~group:[ cref "l" "l_shipmode" ]
      [ cnt "order_count" ]
      (spj "star_q12_spj" [ rel "o" "orders"; rel "l" "lineitem" ]
         [
           Expr.eq (c "l" "l_orderkey") (c "o" "o_orderkey");
           Expr.In_list (c "l" "l_shipmode", [ Value.Str (rand_mode ()); Value.Str (rand_mode ()) ]);
           Expr.Cmp (Expr.Lt, c "l" "l_commitdate", c "l" "l_receiptdate");
         ]);
    (* q13: customer order counts via UNION of two segments *)
    Logical.Union_all
      {
        name = "star_q13";
        inputs =
          [
            agg "q13a" ~group:[ cref "cu" "c_mktsegment" ] [ cnt "orders" ]
              (spj "star_q13a" [ rel "cu" "customer"; rel "o" "orders" ]
                 [
                   Expr.eq (c "o" "o_custkey") (c "cu" "c_custkey");
                   Expr.Cmp (Expr.Eq, c "cu" "c_mktsegment", Expr.vstr "building");
                 ]);
            agg "q13b" ~group:[ cref "cu" "c_mktsegment" ] [ cnt "orders" ]
              (spj "star_q13b" [ rel "cu" "customer"; rel "o" "orders" ]
                 [
                   Expr.eq (c "o" "o_custkey") (c "cu" "c_custkey");
                   Expr.Cmp (Expr.Eq, c "cu" "c_mktsegment", Expr.vstr "machinery");
                 ]);
          ];
      };
    (* q14: promotion effect *)
    agg "star_q14"
      [ sum "promo_revenue" revenue ]
      (spj "star_q14_spj" [ rel "l" "lineitem"; rel "p" "part" ]
         [
           Expr.eq (c "l" "l_partkey") (c "p" "p_partkey");
           Expr.Cmp (Expr.Eq, c "p" "p_type", Expr.vstr "promo");
           Expr.Between (c "l" "l_shipdate", Value.Int 1400, Value.Int 1430);
         ]);
    (* q15: top supplier *)
    agg "star_q15"
      ~group:[ cref "s" "s_name" ]
      [ sum "total" revenue ]
      (spj "star_q15_spj" [ rel "l" "lineitem"; rel "s" "supplier" ]
         [
           Expr.eq (c "l" "l_suppkey") (c "s" "s_suppkey");
           Expr.Between (c "l" "l_shipdate", Value.Int 2000, Value.Int 2090);
         ]);
    (* q16: parts/supplier relationship — NOT EXISTS *)
    agg "star_q16"
      ~group:[ cref "q16s" "p_p_brand" ]
      [ cnt "supplier_cnt" ]
      (Logical.Anti
         {
           name = "q16s";
           left =
             spj "star_q16_ps"
               [ rel "ps" "partsupp"; rel "p" "part" ]
               [
                 Expr.eq (c "ps" "ps_partkey") (c "p" "p_partkey");
                 Expr.Cmp (Expr.Gt, c "p" "p_size", Expr.vint 40);
               ];
           right =
             spj "star_q16_s" [ rel "s" "supplier" ]
               [ Expr.Cmp (Expr.Lt, c "s" "s_acctbal", Expr.vfloat 100.0) ];
           on = [ Expr.eq (c "ps" "ps_suppkey") (c "s" "s_suppkey") ];
         });
    (* q17: small-quantity-order revenue *)
    agg "star_q17"
      [ avg "avg_yearly" (c "l" "l_extendedprice") ]
      (spj "star_q17_spj" [ rel "l" "lineitem"; rel "p" "part" ]
         [
           Expr.eq (c "l" "l_partkey") (c "p" "p_partkey");
           Expr.Cmp (Expr.Eq, c "p" "p_brand", Expr.vstr (rand_brand ()));
           Expr.Cmp (Expr.Lt, c "l" "l_quantity", Expr.vint 5);
         ]);
    (* q18: large volume customer *)
    agg "star_q18"
      ~group:[ cref "cu" "c_custkey" ]
      [ sum "total_qty" (c "l" "l_quantity") ]
      (spj "star_q18_spj"
         [ rel "cu" "customer"; rel "o" "orders"; rel "l" "lineitem" ]
         [
           Expr.eq (c "o" "o_custkey") (c "cu" "c_custkey");
           Expr.eq (c "l" "l_orderkey") (c "o" "o_orderkey");
           Expr.Cmp (Expr.Gt, c "o" "o_totalprice", Expr.vfloat 350000.0);
         ]);
    (* q19: discounted revenue, disjunctive predicate *)
    agg "star_q19"
      [ sum "revenue" revenue ]
      (spj "star_q19_spj" [ rel "l" "lineitem"; rel "p" "part" ]
         [
           Expr.eq (c "l" "l_partkey") (c "p" "p_partkey");
           Expr.Or
             [
               Expr.Cmp (Expr.Eq, c "p" "p_type", Expr.vstr "small");
               Expr.Cmp (Expr.Eq, c "p" "p_type", Expr.vstr "medium");
             ];
           Expr.Cmp (Expr.Le, c "l" "l_quantity", Expr.vint 15);
         ]);
    (* q20: potential part promotion — EXISTS over partsupp *)
    agg "star_q20"
      ~group:[ cref "q20s" "s_s_name" ]
      [ cnt "parts" ]
      (Logical.Semi
         {
           name = "q20s";
           left =
             spj "star_q20_s" [ rel "s" "supplier"; rel "n" "nation" ]
               [
                 Expr.eq (c "s" "s_nationkey") (c "n" "n_nationkey");
                 Expr.Cmp (Expr.Eq, c "n" "n_name", Expr.vstr "nation11");
               ];
           right =
             spj "star_q20_ps" [ rel "ps" "partsupp" ]
               [ Expr.Cmp (Expr.Gt, c "ps" "ps_availqty", Expr.vint 5000) ];
           on = [ Expr.eq (c "ps" "ps_suppkey") (c "s" "s_suppkey") ];
         });
    (* q21: suppliers who kept orders waiting *)
    agg "star_q21"
      ~group:[ cref "s" "s_name" ]
      [ cnt "numwait" ]
      (spj "star_q21_spj"
         [ rel "s" "supplier"; rel "l" "lineitem"; rel "o" "orders"; rel "n" "nation" ]
         [
           Expr.eq (c "l" "l_suppkey") (c "s" "s_suppkey");
           Expr.eq (c "l" "l_orderkey") (c "o" "o_orderkey");
           Expr.eq (c "s" "s_nationkey") (c "n" "n_nationkey");
           Expr.Cmp (Expr.Gt, c "l" "l_receiptdate", c "l" "l_commitdate");
           Expr.Cmp (Expr.Eq, c "n" "n_name", Expr.vstr "nation05");
         ]);
    (* q22: global sales opportunity *)
    agg "star_q22"
      ~group:[ cref "cu" "c_mktsegment" ]
      [ cnt "numcust"; sum "totacctbal" (c "cu" "c_acctbal") ]
      (spj "star_q22_spj" [ rel "cu" "customer" ]
         [ Expr.Cmp (Expr.Gt, c "cu" "c_acctbal", Expr.vfloat 7500.0) ]);
  ]
