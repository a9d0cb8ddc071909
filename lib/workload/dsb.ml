module Catalog = Qs_storage.Catalog
module Table = Qs_storage.Table
module Value = Qs_storage.Value
module Schema = Qs_storage.Schema
module Query = Qs_query.Query
module Expr = Qs_query.Expr
module Logical = Qs_plan.Logical
module Rng = Qs_util.Rng
module D = Datagen

let sz scale base = max 8 (int_of_float (float_of_int base *. scale))

let categories =
  [| "books"; "electronics"; "home"; "jewelry"; "music"; "shoes"; "sports"; "toys"; "women"; "men" |]

let build ?(scale = 1.0) ?spill ~seed () =
  let rng = Rng.create seed in
  let cat = Catalog.create () in
  let table = D.table ?spill in
  let n_date = 2000 in
  let n_item = sz scale 3000 in
  let n_cust = sz scale 5000 in
  let n_cd = 1000 in
  let n_store = 50 in
  let n_promo = 300 in
  let n_ss = sz scale 60000 in
  let n_ws = sz scale 40000 in

  let date_dim =
    table ~name:"date_dim"
      [
        ("d_date_sk", Value.TInt, D.serial n_date);
        ("d_year", Value.TInt, Array.init n_date (fun i -> Value.Int (2015 + (i / 365))));
        ("d_moy", Value.TInt, Array.init n_date (fun i -> Value.Int (1 + (i / 30 mod 12))));
        ("d_dow", Value.TInt, Array.init n_date (fun i -> Value.Int (i mod 7)));
      ]
  in
  let item_cat =
    Array.init n_item (fun i -> Value.Str categories.(i * Array.length categories / n_item))
  in
  let item =
    table ~name:"item"
      [
        ("i_item_sk", Value.TInt, D.serial n_item);
        ("i_category", Value.TStr, item_cat);
        ( "i_brand",
          Value.TStr,
          (* brand embeds the category: filters on both correlate *)
          Array.mapi
            (fun i cv ->
              Value.Str
                (Printf.sprintf "%s_b%d" (Value.as_string cv) (i mod 12)))
            item_cat );
        ( "i_current_price",
          Value.TFloat,
          Array.init n_item (fun _ -> Value.Float (1.0 +. Rng.float rng 300.0)) );
      ]
  in
  let cd =
    table ~name:"customer_demographics"
      [
        ("cd_demo_sk", Value.TInt, D.serial n_cd);
        ( "cd_gender",
          Value.TStr,
          Array.init n_cd (fun i -> Value.Str (if i mod 2 = 0 then "m" else "f")) );
        ( "cd_education",
          Value.TStr,
          Array.init n_cd (fun i ->
              Value.Str [| "primary"; "secondary"; "college"; "degree"; "advanced" |].(i mod 5)) );
      ]
  in
  let customer =
    table ~name:"customer"
      [
        ("c_customer_sk", Value.TInt, D.serial n_cust);
        ("c_cdemo_sk", Value.TInt, D.zipf_fk rng ~n:n_cust ~domain:n_cd ~theta:0.6);
        ( "c_birth_year",
          Value.TInt,
          D.int_between rng ~n:n_cust ~lo:1930 ~hi:2005 ~skew:0.4 );
      ]
  in
  let store =
    table ~name:"store"
      [
        ("s_store_sk", Value.TInt, D.serial n_store);
        ( "s_state",
          Value.TStr,
          Array.init n_store (fun i ->
              Value.Str [| "ca"; "tx"; "ny"; "fl"; "wa"; "il" |].(i mod 6)) );
      ]
  in
  let promotion =
    table ~name:"promotion"
      [
        ("p_promo_sk", Value.TInt, D.serial n_promo);
        ( "p_channel",
          Value.TStr,
          Array.init n_promo (fun i ->
              Value.Str [| "tv"; "radio"; "press"; "web"; "mail" |].(i mod 5)) );
      ]
  in
  (* store_sales: heavily skewed item & customer, item↔date correlated *)
  let ss_item = D.zipf_fk rng ~n:n_ss ~domain:n_item ~theta:1.1 in
  let store_sales =
    table ~name:"store_sales"
      [
        ("ss_id", Value.TInt, D.serial n_ss);
        ( "ss_sold_date_sk",
          Value.TInt,
          D.correlated_fk rng ~base:ss_item ~domain:n_date ~bands:24 ~noise:0.35 );
        ("ss_item_sk", Value.TInt, ss_item);
        ("ss_customer_sk", Value.TInt, D.zipf_fk rng ~n:n_ss ~domain:n_cust ~theta:0.9);
        ("ss_store_sk", Value.TInt, D.zipf_fk rng ~n:n_ss ~domain:n_store ~theta:0.8);
        ( "ss_promo_sk",
          Value.TInt,
          D.with_nulls rng ~frac:0.3
            (D.correlated_fk rng ~base:ss_item ~domain:n_promo ~bands:20 ~noise:0.3) );
        ("ss_quantity", Value.TInt, Array.init n_ss (fun _ -> Value.Int (1 + Rng.int rng 100)));
        ( "ss_sales_price",
          Value.TFloat,
          Array.init n_ss (fun _ -> Value.Float (Rng.float rng 200.0)) );
      ]
  in
  let ws_item = D.zipf_fk rng ~n:n_ws ~domain:n_item ~theta:1.0 in
  let web_sales =
    table ~name:"web_sales"
      [
        ("ws_id", Value.TInt, D.serial n_ws);
        ( "ws_sold_date_sk",
          Value.TInt,
          D.correlated_fk rng ~base:ws_item ~domain:n_date ~bands:24 ~noise:0.4 );
        ("ws_item_sk", Value.TInt, ws_item);
        ("ws_bill_customer_sk", Value.TInt, D.zipf_fk rng ~n:n_ws ~domain:n_cust ~theta:1.0);
        ( "ws_promo_sk",
          Value.TInt,
          D.with_nulls rng ~frac:0.35
            (D.correlated_fk rng ~base:ws_item ~domain:n_promo ~bands:20 ~noise:0.3) );
        ("ws_quantity", Value.TInt, Array.init n_ws (fun _ -> Value.Int (1 + Rng.int rng 100)));
        ( "ws_sales_price",
          Value.TFloat,
          Array.init n_ws (fun _ -> Value.Float (Rng.float rng 200.0)) );
      ]
  in
  List.iter
    (fun (tbl, pk) -> Catalog.add_table cat ~pk tbl)
    [
      (date_dim, "d_date_sk"); (item, "i_item_sk"); (cd, "cd_demo_sk");
      (customer, "c_customer_sk"); (store, "s_store_sk"); (promotion, "p_promo_sk");
      (store_sales, "ss_id"); (web_sales, "ws_id");
    ];
  List.iter
    (fun (ft, fc, tt, tc) ->
      Catalog.add_fk cat ~from_table:ft ~from_column:fc ~to_table:tt ~to_column:tc)
    [
      ("customer", "c_cdemo_sk", "customer_demographics", "cd_demo_sk");
      ("store_sales", "ss_sold_date_sk", "date_dim", "d_date_sk");
      ("store_sales", "ss_item_sk", "item", "i_item_sk");
      ("store_sales", "ss_customer_sk", "customer", "c_customer_sk");
      ("store_sales", "ss_store_sk", "store", "s_store_sk");
      ("store_sales", "ss_promo_sk", "promotion", "p_promo_sk");
      ("web_sales", "ws_sold_date_sk", "date_dim", "d_date_sk");
      ("web_sales", "ws_item_sk", "item", "i_item_sk");
      ("web_sales", "ws_bill_customer_sk", "customer", "c_customer_sk");
      ("web_sales", "ws_promo_sk", "promotion", "p_promo_sk");
    ];
  cat

(* ------------------------------------------------------------------ *)
(* Query templates                                                     *)
(* ------------------------------------------------------------------ *)

let c = Expr.col
let rel alias table = { Query.alias; table }
let cref r n = { Expr.rel = r; Expr.name = n }

let rand_category rng = Rng.choice rng categories
let rand_state rng = Rng.choice rng [| "ca"; "tx"; "ny"; "fl"; "wa"; "il" |]
let rand_channel rng = Rng.choice rng [| "tv"; "radio"; "press"; "web"; "mail" |]

(* Template 1: store sales star — ss with 2-4 dimensions. *)
let t_star rng ~name =
  let rels = ref [ rel "ss" "store_sales"; rel "i" "item"; rel "d" "date_dim" ] in
  let preds =
    ref
      [
        Expr.eq (c "ss" "ss_item_sk") (c "i" "i_item_sk");
        Expr.eq (c "ss" "ss_sold_date_sk") (c "d" "d_date_sk");
        Expr.Cmp (Expr.Eq, c "i" "i_category", Expr.vstr (rand_category rng));
        Expr.Cmp (Expr.Eq, c "d" "d_year", Expr.vint (2015 + Rng.int rng 5));
      ]
  in
  if Rng.bernoulli rng 0.6 then begin
    rels := rel "s" "store" :: !rels;
    preds :=
      Expr.eq (c "ss" "ss_store_sk") (c "s" "s_store_sk")
      :: Expr.Cmp (Expr.Eq, c "s" "s_state", Expr.vstr (rand_state rng))
      :: !preds
  end;
  if Rng.bernoulli rng 0.5 then begin
    rels := rel "p" "promotion" :: !rels;
    preds :=
      Expr.eq (c "ss" "ss_promo_sk") (c "p" "p_promo_sk")
      :: Expr.Cmp (Expr.Eq, c "p" "p_channel", Expr.vstr (rand_channel rng))
      :: !preds
  end;
  Query.make ~name
    ~output:[ cref "i" "i_brand"; cref "ss" "ss_sales_price" ]
    (List.rev !rels) !preds

(* Template 2: customer snowflake — ss → customer → demographics. *)
let t_snowflake rng ~name =
  Query.make ~name
    ~output:[ cref "cd" "cd_education"; cref "ss" "ss_quantity" ]
    [
      rel "ss" "store_sales"; rel "cu" "customer"; rel "cd" "customer_demographics";
      rel "d" "date_dim";
    ]
    [
      Expr.eq (c "ss" "ss_customer_sk") (c "cu" "c_customer_sk");
      Expr.eq (c "cu" "c_cdemo_sk") (c "cd" "cd_demo_sk");
      Expr.eq (c "ss" "ss_sold_date_sk") (c "d" "d_date_sk");
      Expr.Cmp
        (Expr.Eq, c "cd" "cd_gender", Expr.vstr (if Rng.bool rng then "m" else "f"));
      Expr.Cmp (Expr.Le, c "d" "d_moy", Expr.vint (3 + Rng.int rng 6));
      Expr.Cmp (Expr.Gt, c "cu" "c_birth_year", Expr.vint (1950 + Rng.int rng 30));
    ]

(* Template 3: cross-channel fact-fact join (the inverse-star shape). *)
let t_cross_channel rng ~name =
  let preds =
    [
      Expr.eq (c "ss" "ss_item_sk") (c "i" "i_item_sk");
      Expr.eq (c "ws" "ws_item_sk") (c "i" "i_item_sk");
      Expr.eq (c "ss" "ss_customer_sk") (c "cu" "c_customer_sk");
      Expr.eq (c "ws" "ws_bill_customer_sk") (c "cu" "c_customer_sk");
      Expr.Cmp (Expr.Eq, c "i" "i_category", Expr.vstr (rand_category rng));
    ]
  in
  Query.make ~name
    ~output:[ cref "i" "i_brand"; cref "cu" "c_customer_sk" ]
    [ rel "ss" "store_sales"; rel "ws" "web_sales"; rel "i" "item"; rel "cu" "customer" ]
    (if Rng.bernoulli rng 0.5 then
       Expr.Cmp (Expr.Gt, c "ss" "ss_quantity", Expr.vint (40 + Rng.int rng 40)) :: preds
     else preds)

(* Template 4: web sales star with promotion correlation. *)
let t_web rng ~name =
  Query.make ~name
    ~output:[ cref "i" "i_category"; cref "ws" "ws_sales_price" ]
    [ rel "ws" "web_sales"; rel "i" "item"; rel "p" "promotion"; rel "d" "date_dim" ]
    [
      Expr.eq (c "ws" "ws_item_sk") (c "i" "i_item_sk");
      Expr.eq (c "ws" "ws_promo_sk") (c "p" "p_promo_sk");
      Expr.eq (c "ws" "ws_sold_date_sk") (c "d" "d_date_sk");
      Expr.Cmp (Expr.Eq, c "p" "p_channel", Expr.vstr (rand_channel rng));
      Expr.Like (c "i" "i_brand", rand_category rng ^ "_b%");
      Expr.Cmp (Expr.Ge, c "d" "d_year", Expr.vint (2016 + Rng.int rng 3));
    ]

(* Template 5: big multi-dimension star over ss. *)
let t_wide rng ~name =
  Query.make ~name
    ~output:[ cref "i" "i_brand"; cref "s" "s_state" ]
    [
      rel "ss" "store_sales"; rel "i" "item"; rel "d" "date_dim"; rel "s" "store";
      rel "cu" "customer"; rel "cd" "customer_demographics";
    ]
    [
      Expr.eq (c "ss" "ss_item_sk") (c "i" "i_item_sk");
      Expr.eq (c "ss" "ss_sold_date_sk") (c "d" "d_date_sk");
      Expr.eq (c "ss" "ss_store_sk") (c "s" "s_store_sk");
      Expr.eq (c "ss" "ss_customer_sk") (c "cu" "c_customer_sk");
      Expr.eq (c "cu" "c_cdemo_sk") (c "cd" "cd_demo_sk");
      Expr.Cmp (Expr.Eq, c "i" "i_category", Expr.vstr (rand_category rng));
      Expr.Cmp (Expr.Eq, c "d" "d_moy", Expr.vint (1 + Rng.int rng 12));
      Expr.Cmp
        ( Expr.Eq,
          c "cd" "cd_education",
          Expr.vstr (Rng.choice rng [| "college"; "degree"; "advanced" |]) );
    ]

let templates = [| t_star; t_snowflake; t_cross_channel; t_web; t_wide |]

let spj_queries _cat ~seed =
  let rng = Rng.create seed in
  List.init 15 (fun i ->
      let t = templates.(i mod Array.length templates) in
      t rng ~name:(Printf.sprintf "dsb_spj_%d" (i + 1)))

let nonspj_queries _cat ~seed =
  let rng = Rng.create (seed + 1) in
  let sum label s = { Logical.fn = Logical.Sum; arg = Some s; label } in
  let avg label s = { Logical.fn = Logical.Avg; arg = Some s; label } in
  let cnt label = { Logical.fn = Logical.Count_star; arg = None; label } in
  let wrap i (q : Query.t) =
    (* aggregation needs the full rows, not the SPJ projection *)
    let q = Query.make ~name:q.Query.name q.Query.rels q.Query.preds in
    let name = Printf.sprintf "dsb_q%d" i in
    let price_col =
      if List.exists (fun (r : Query.rel) -> r.Query.alias = "ws") q.Query.rels
         && not (List.exists (fun (r : Query.rel) -> r.Query.alias = "ss") q.Query.rels)
      then c "ws" "ws_sales_price"
      else c "ss" "ss_sales_price"
    in
    match i mod 4 with
    | 0 ->
        Logical.Agg
          { name; group_by = []; aggs = [ sum "total" price_col; cnt "rows" ]; input = Logical.Spj q }
    | 1 ->
        Logical.Agg
          {
            name;
            group_by = [ cref "i" "i_brand" ];
            aggs = [ sum "total" price_col ];
            input = Logical.Spj q;
          }
    | 2 ->
        Logical.Agg
          {
            name;
            group_by = [ cref "i" "i_category" ];
            aggs = [ avg "avg_price" price_col; cnt "rows" ];
            input = Logical.Spj q;
          }
    | _ ->
        Logical.Agg
          { name; group_by = []; aggs = [ cnt "rows" ]; input = Logical.Spj q }
  in
  (* 33 aggregation wrappers over template instances... *)
  let agg_queries =
    List.init 33 (fun i ->
        (* t_snowflake lacks the "i" alias grouped variants need *)
        let pool = [| t_star; t_cross_channel; t_web; t_wide |] in
        let t = pool.(i mod Array.length pool) in
        let q = t rng ~name:(Printf.sprintf "dsb_q%d_spj" (i + 1)) in
        wrap (i + 1) q)
  in
  (* ...plus 2 semi-joins, 1 anti-join and 1 union *)
  let semi1 =
    Logical.Agg
      {
        name = "dsb_q34";
        group_by = [ cref "q34s" "i_i_category" ];
        aggs = [ cnt "items" ];
        input =
          Logical.Semi
            {
              name = "q34s";
              left =
                Logical.Spj
                  (Query.make ~name:"dsb_q34_i" [ rel "i" "item" ]
                     [ Expr.Cmp (Expr.Gt, c "i" "i_current_price", Expr.vfloat 100.0) ]);
              right =
                Logical.Spj
                  (Query.make ~name:"dsb_q34_ss" [ rel "ss" "store_sales" ]
                     [ Expr.Cmp (Expr.Gt, c "ss" "ss_quantity", Expr.vint 80) ]);
              on = [ Expr.eq (c "ss" "ss_item_sk") (c "i" "i_item_sk") ];
            };
      }
  in
  let semi2 =
    Logical.Agg
      {
        name = "dsb_q35";
        group_by = [];
        aggs = [ cnt "customers" ];
        input =
          Logical.Semi
            {
              name = "q35s";
              left =
                Logical.Spj
                  (Query.make ~name:"dsb_q35_c" [ rel "cu" "customer" ]
                     [ Expr.Cmp (Expr.Gt, c "cu" "c_birth_year", Expr.vint 1985) ]);
              right =
                Logical.Spj
                  (Query.make ~name:"dsb_q35_ws" [ rel "ws" "web_sales" ]
                     [ Expr.Cmp (Expr.Gt, c "ws" "ws_sales_price", Expr.vfloat 150.0) ]);
              on = [ Expr.eq (c "ws" "ws_bill_customer_sk") (c "cu" "c_customer_sk") ];
            };
      }
  in
  let anti =
    Logical.Agg
      {
        name = "dsb_q36";
        group_by = [];
        aggs = [ cnt "items_never_promoted" ];
        input =
          Logical.Anti
            {
              name = "q36a";
              left =
                Logical.Spj
                  (Query.make ~name:"dsb_q36_i" [ rel "i" "item" ]
                     [ Expr.Cmp (Expr.Lt, c "i" "i_current_price", Expr.vfloat 20.0) ]);
              right =
                Logical.Spj
                  (Query.make ~name:"dsb_q36_ss"
                     [ rel "ss" "store_sales" ]
                     [ Expr.Not_null (c "ss" "ss_promo_sk") ]);
              on = [ Expr.eq (c "ss" "ss_item_sk") (c "i" "i_item_sk") ];
            };
      }
  in
  let union =
    Logical.Union_all
      {
        name = "dsb_q37";
        inputs =
          [
            Logical.Agg
              {
                name = "q37a";
                group_by = [ cref "i" "i_category" ];
                aggs = [ sum "rev" (c "ss" "ss_sales_price") ];
                input =
                  Logical.Spj
                    (Query.make ~name:"dsb_q37_ss"
                       [ rel "ss" "store_sales"; rel "i" "item" ]
                       [ Expr.eq (c "ss" "ss_item_sk") (c "i" "i_item_sk") ]);
              };
            Logical.Agg
              {
                name = "q37b";
                group_by = [ cref "i" "i_category" ];
                aggs = [ sum "rev" (c "ws" "ws_sales_price") ];
                input =
                  Logical.Spj
                    (Query.make ~name:"dsb_q37_ws"
                       [ rel "ws" "web_sales"; rel "i" "item" ]
                       [ Expr.eq (c "ws" "ws_item_sk") (c "i" "i_item_sk") ]);
              };
          ];
      }
  in
  agg_queries @ [ semi1; semi2; anti; union ]
