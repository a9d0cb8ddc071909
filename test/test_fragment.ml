(* Fragments: construction, restriction, substitution, logical identity. *)

module Value = Qs_storage.Value
module Table = Qs_storage.Table
module Fragment = Qs_stats.Fragment
module Table_stats = Qs_stats.Table_stats
module Analyze = Qs_stats.Analyze
module Query = Qs_query.Query
module Expr = Qs_query.Expr
module Strategy = Qs_core.Strategy
module Naive = Qs_exec.Naive

let frag () =
  let _, ctx = Fixtures.shop_ctx ~n_orders:300 () in
  Strategy.fragment_of_query ctx (Fixtures.shop_query ())

let test_of_query_shape () =
  let f = frag () in
  Alcotest.(check int) "4 inputs" 4 (List.length f.Fragment.inputs);
  Alcotest.(check int) "3 cross preds" 3 (List.length f.Fragment.preds);
  let c = Fragment.find_input f "c" in
  Alcotest.(check int) "city filter attached" 1 (List.length c.Fragment.filters);
  Alcotest.(check bool) "base" false c.Fragment.is_temp

let test_restrict_keeps_internal_preds () =
  let f = frag () in
  let sub = Fragment.restrict f [ Fragment.find_input f "o"; Fragment.find_input f "p" ] in
  Alcotest.(check int) "one pred" 1 (List.length sub.Fragment.preds);
  Alcotest.(check (list string)) "provides" [ "o"; "p" ] (List.sort compare (Fragment.provides sub))

let make_temp f aliases =
  let inputs = List.map (Fragment.input_of_alias f) aliases in
  let sub = Fragment.restrict f inputs in
  let tbl = Naive.rows { sub with Fragment.output = [] } in
  let tbl = Table.with_name tbl "T1" in
  Fragment.temp_input ~id:"T1" ~provenance:(Fragment.key sub) tbl ~provides:aliases
    ~stats:(Analyze.of_table tbl)

let test_substitute () =
  let f = frag () in
  let temp = make_temp f [ "o"; "p" ] in
  let f' = Fragment.substitute f ~temp in
  Alcotest.(check int) "3 inputs now" 3 (List.length f'.Fragment.inputs);
  (* o-p pred applied; c-o and r-p preds survive *)
  Alcotest.(check int) "2 preds left" 2 (List.length f'.Fragment.preds);
  Alcotest.(check bool) "temp present" true
    (List.exists (fun i -> i.Fragment.is_temp) f'.Fragment.inputs);
  (* provides preserved *)
  Alcotest.(check (list string)) "all aliases" [ "c"; "o"; "p"; "r" ]
    (List.sort compare (Fragment.provides f'))

let test_substitute_no_overlap_identity () =
  let f = frag () in
  let lone =
    Fragment.temp_input ~id:"TX" ~provenance:"x"
      (Table.create ~inputs:[] ~name:"TX" ~schema:[||] [||])
      ~provides:[ "zz" ] ~stats:(Table_stats.rowcount_only 0)
  in
  Alcotest.(check bool) "unchanged" true (Fragment.substitute f ~temp:lone == f)

let test_substitute_partial_overlap_rejected () =
  let f = frag () in
  let temp = make_temp f [ "o"; "p" ] in
  let f' = Fragment.substitute f ~temp in
  (* a second temp covering p and r only partially covers T1 (o,p) *)
  let bad = make_temp f [ "p"; "r" ] in
  Alcotest.(check bool) "partial coverage rejected" true
    (try
       ignore (Fragment.substitute f' ~temp:bad);
       false
     with Invalid_argument _ -> true)

let test_key_is_logical_identity () =
  let f = frag () in
  let key_before = Fragment.key f in
  let temp = make_temp f [ "o"; "p" ] in
  let f' = Fragment.substitute f ~temp in
  (* substituting a temp whose provenance is the restricted fragment's key
     must keep the overall logical identity distinct but deterministic *)
  Alcotest.(check bool) "key changed" true (Fragment.key f' <> key_before);
  let temp2 = make_temp f [ "o"; "p" ] in
  let f'' = Fragment.substitute f ~temp:temp2 in
  Alcotest.(check string) "same logical content, same key" (Fragment.key f') (Fragment.key f'')

let test_key_ignores_order () =
  let f = frag () in
  let flipped = { f with Fragment.inputs = List.rev f.Fragment.inputs } in
  Alcotest.(check string) "order-insensitive" (Fragment.key f) (Fragment.key flipped)

let test_connected_components () =
  let f = frag () in
  Alcotest.(check int) "one component" 1 (List.length (Fragment.connected_components f));
  let no_preds = { f with Fragment.preds = [] } in
  Alcotest.(check int) "four singletons" 4
    (List.length (Fragment.connected_components no_preds))

let test_stats_lookup () =
  let f = frag () in
  Alcotest.(check bool) "c.city stats" true
    (Fragment.stats_of f { Expr.rel = "c"; name = "city" } <> None);
  Alcotest.(check bool) "unknown col" true
    (Fragment.stats_of f { Expr.rel = "c"; name = "nope" } = None);
  Alcotest.(check (option int)) "rows of customers" (Some 120)
    (Fragment.rows_of f { Expr.rel = "c"; name = "id" })

let test_requalify_stats () =
  let cat = Fixtures.shop_catalog () in
  let stats = Analyze.of_table (Qs_storage.Catalog.table cat "customers") in
  let re = Fragment.requalify_stats "cc" stats in
  Alcotest.(check bool) "new qualifier" true (Table_stats.find re ~rel:"cc" ~name:"city" <> None);
  Alcotest.(check bool) "old qualifier gone" true
    (Table_stats.find re ~rel:"customers" ~name:"city" = None)

let suite =
  [
    Alcotest.test_case "of_query shape" `Quick test_of_query_shape;
    Alcotest.test_case "restrict" `Quick test_restrict_keeps_internal_preds;
    Alcotest.test_case "substitute" `Quick test_substitute;
    Alcotest.test_case "substitute no-overlap" `Quick test_substitute_no_overlap_identity;
    Alcotest.test_case "substitute partial overlap" `Quick test_substitute_partial_overlap_rejected;
    Alcotest.test_case "key logical identity" `Quick test_key_is_logical_identity;
    Alcotest.test_case "key order-insensitive" `Quick test_key_ignores_order;
    Alcotest.test_case "connected components" `Quick test_connected_components;
    Alcotest.test_case "stats lookup" `Quick test_stats_lookup;
    Alcotest.test_case "requalify stats" `Quick test_requalify_stats;
  ]
