(* The SQL front-end. *)

module Value = Qs_storage.Value
module Query = Qs_query.Query
module Expr = Qs_query.Expr
module Sql = Qs_query.Sql

let parse = Sql.parse

let test_basic_select () =
  let q =
    parse
      "SELECT t.title, n.name FROM title AS t, cast_info ci, name AS n \
       WHERE ci.movie_id = t.id AND ci.person_id = n.id;"
  in
  Alcotest.(check int) "3 rels" 3 (List.length q.Query.rels);
  Alcotest.(check int) "2 preds" 2 (List.length q.Query.preds);
  Alcotest.(check int) "2 output cols" 2 (List.length q.Query.output);
  Alcotest.(check string) "implicit alias" "ci" (Query.table_of_alias q "ci" |> fun t -> if t = "cast_info" then "ci" else "?")

let test_star_and_no_where () =
  let q = parse "select * from movies as m" in
  Alcotest.(check int) "one rel" 1 (List.length q.Query.rels);
  Alcotest.(check (list string)) "select star" []
    (List.map (fun (c : Expr.colref) -> c.Expr.name) q.Query.output);
  Alcotest.(check int) "no preds" 0 (List.length q.Query.preds)

let test_alias_defaults_to_table () =
  let q = parse "SELECT movies.id FROM movies WHERE movies.id = 3" in
  Alcotest.(check string) "alias = table" "movies" (List.hd q.Query.rels).Query.alias

let test_literals () =
  let q =
    parse
      "SELECT m.id FROM movies AS m WHERE m.year >= 1995 AND m.rating = 7.5 \
       AND m.title = 'the ''thing'''"
  in
  match q.Query.preds with
  | [ Expr.Cmp (Expr.Ge, _, Expr.Const (Value.Int 1995));
      Expr.Cmp (Expr.Eq, _, Expr.Const (Value.Float 7.5));
      Expr.Cmp (Expr.Eq, _, Expr.Const (Value.Str "the 'thing'")) ] ->
      ()
  | _ -> Alcotest.fail "literal parse shapes"

let test_between_in_like_null () =
  let q =
    parse
      "SELECT m.id FROM movies AS m, kw AS k WHERE m.year BETWEEN 1990 AND 2000 \
       AND k.word IN ('hero', 'war') AND k.word LIKE 'h%' AND m.note IS NULL \
       AND k.tag IS NOT NULL"
  in
  Alcotest.(check int) "5 preds" 5 (List.length q.Query.preds);
  (match List.nth q.Query.preds 0 with
  | Expr.Between (_, Value.Int 1990, Value.Int 2000) -> ()
  | _ -> Alcotest.fail "between");
  (match List.nth q.Query.preds 1 with
  | Expr.In_list (_, [ Value.Str "hero"; Value.Str "war" ]) -> ()
  | _ -> Alcotest.fail "in list");
  match List.nth q.Query.preds 4 with
  | Expr.Not_null _ -> ()
  | _ -> Alcotest.fail "is not null"

let test_or_group () =
  let q =
    parse "SELECT m.id FROM movies AS m WHERE (m.kind = 1 OR m.kind = 2) AND m.year > 2000"
  in
  match q.Query.preds with
  | [ Expr.Or [ _; _ ]; Expr.Cmp (Expr.Gt, _, _) ] -> ()
  | _ -> Alcotest.fail "or group shape"

let test_operators () =
  let q =
    parse
      "SELECT a.x FROM t AS a, u AS b WHERE a.x <> b.y AND a.x != 3 AND a.x <= 4 \
       AND a.x < 5 AND a.x >= 6 AND a.x > 7"
  in
  Alcotest.(check int) "6 preds" 6 (List.length q.Query.preds)

let test_roundtrip_through_to_sql () =
  (* parse (to_sql q) must reproduce the same structure *)
  let q0 =
    Query.make ~name:"rt"
      ~output:[ { Expr.rel = "a"; name = "x" } ]
      [ { Query.alias = "a"; table = "t" }; { Query.alias = "b"; table = "u" } ]
      [
        Expr.eq (Expr.col "a" "x") (Expr.col "b" "y");
        Expr.Cmp (Expr.Lt, Expr.col "a" "x", Expr.vint 10);
        Expr.Like (Expr.col "b" "z", "w%");
      ]
  in
  let q1 = parse ~name:"rt" (Query.to_sql q0) in
  Alcotest.(check bool) "rels equal" true (q0.Query.rels = q1.Query.rels);
  Alcotest.(check int) "same pred count" (List.length q0.Query.preds)
    (List.length q1.Query.preds);
  List.iter2
    (fun a b -> Alcotest.(check bool) "pred equal" true (Expr.equal_pred a b))
    q0.Query.preds q1.Query.preds

(* Every generated SPJ statement of both SQL-shaped workloads prints to
   SQL that parses back into the identical query: string constants,
   BETWEEN / IN bounds and LIKE patterns are quoted literals. *)
let test_workload_statements_roundtrip () =
  let cinema = Qs_workload.Cinema.build ~scale:0.05 ~seed:2023 () in
  let dsb = Qs_workload.Dsb.build ~scale:0.05 ~seed:2023 () in
  let statements =
    Qs_workload.Cinema.queries cinema ~seed:2024
      ~n:Qs_workload.Cinema.default_query_count
    @ Qs_workload.Dsb.spj_queries dsb ~seed:2024
  in
  Alcotest.(check int) "every statement" 106 (List.length statements);
  List.iter
    (fun (q : Query.t) ->
      let sql = Query.to_sql q in
      match Sql.parse_result ~name:q.Query.name sql with
      | Error m -> Alcotest.failf "%s does not parse (%s):\n%s" q.Query.name m sql
      | Ok back ->
          if back <> q then
            Alcotest.failf "%s parses into a different query:\n%s\n%s" q.Query.name
              sql (Query.to_sql back))
    statements

(* Regression: a string constant used to print exactly like the number
   of the same spelling, so [x = 1] and [x = '1'] shared their SQL text
   (the plan-cache key) and their fragment key. *)
let test_string_literal_is_not_a_number () =
  let _, ctx = Fixtures.shop_ctx ~n_orders:50 () in
  let query v =
    Query.make ~name:"lit"
      [ { Query.alias = "c"; table = "customers" } ]
      [ Expr.Cmp (Expr.Eq, Expr.col "c" "city", Expr.Const v) ]
  in
  let num = query (Value.Int 1) and str = query (Value.Str "1") in
  Alcotest.(check bool) "to_sql differs" false (Query.to_sql num = Query.to_sql str);
  let key q =
    Qs_stats.Fragment.key (Qs_core.Strategy.fragment_of_query ctx q)
  in
  Alcotest.(check bool) "fragment key differs" false (key num = key str);
  Alcotest.(check string) "quotes doubled" "c.city = 'it''s'"
    (Expr.to_string (List.hd (query (Value.Str "it's")).Query.preds));
  Alcotest.(check string) "LIKE pattern escaped" "c.city LIKE 'o''%'"
    (Expr.to_string (Expr.Like (Expr.col "c" "city", "o'%")));
  (* close float constants get distinct text, and every float reads back *)
  let f1 = query (Value.Float 0.1234561) and f2 = query (Value.Float 0.1234562) in
  Alcotest.(check bool) "float to_sql differs" false (Query.to_sql f1 = Query.to_sql f2);
  Alcotest.(check bool) "float fragment key differs" false (key f1 = key f2);
  List.iter
    (fun f ->
      let q = query (Value.Float f) in
      Alcotest.(check bool)
        (Printf.sprintf "%h reads back" f)
        true
        (Sql.parse ~name:"lit" (Query.to_sql q) = q))
    [ 0.1234561; 0.1; 3.0; -2.5; 1e-7; 1e20; 1. /. 3. ]

let test_case_insensitive_keywords () =
  let q = parse "SeLeCt a.x FrOm t As a WhErE a.x Is NoT nUlL" in
  Alcotest.(check int) "parsed" 1 (List.length q.Query.preds)

let expect_error input fragment =
  match Sql.parse_result input with
  | Ok _ -> Alcotest.failf "expected parse error for %s" input
  | Error msg ->
      if not (Str_helpers.contains msg fragment) then
        Alcotest.failf "error %S does not mention %S" msg fragment

let test_errors () =
  expect_error "SELECT FROM t AS a" "identifier";
  expect_error "SELECT a.x FROM t AS a WHERE" "identifier";
  expect_error "SELECT a.x FROM t AS a WHERE a.x" "predicate operator";
  expect_error "SELECT a.x FROM t AS a WHERE a.x = 'oops" "unterminated";
  expect_error "SELECT a.x FROM t AS a WHERE b.y = 1" "unknown alias";
  expect_error "SELECT a.x FROM t AS a extra" "trailing"

let test_parse_executes () =
  (* end-to-end: parsed SQL runs through QuerySplit on the shop schema *)
  let _, ctx = Fixtures.shop_ctx ~n_orders:300 () in
  let q =
    parse
      "SELECT c.city, p.kind FROM customers AS c, orders AS o, products AS p \
       WHERE o.customer_id = c.id AND o.product_id = p.id AND c.city = 'oslo'"
  in
  let module Strategy = Qs_core.Strategy in
  let module Querysplit = Qs_core.Querysplit in
  let truth = Qs_exec.Naive.rows (Strategy.fragment_of_query ctx q) in
  let got =
    ((Querysplit.strategy Querysplit.default_config).Strategy.run ctx q).Strategy.result
  in
  Alcotest.(check bool) "sql query executes correctly" true
    (Fixtures.tables_equal truth got)

let suite =
  [
    Alcotest.test_case "basic select" `Quick test_basic_select;
    Alcotest.test_case "star / no where" `Quick test_star_and_no_where;
    Alcotest.test_case "alias defaults" `Quick test_alias_defaults_to_table;
    Alcotest.test_case "literals" `Quick test_literals;
    Alcotest.test_case "between/in/like/null" `Quick test_between_in_like_null;
    Alcotest.test_case "or group" `Quick test_or_group;
    Alcotest.test_case "operators" `Quick test_operators;
    Alcotest.test_case "to_sql roundtrip" `Quick test_roundtrip_through_to_sql;
    Alcotest.test_case "workload statements roundtrip" `Quick
      test_workload_statements_roundtrip;
    Alcotest.test_case "string literal is not a number" `Quick
      test_string_literal_is_not_a_number;
    Alcotest.test_case "case insensitivity" `Quick test_case_insensitive_keywords;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "parse + execute" `Quick test_parse_executes;
  ]
