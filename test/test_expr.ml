(* Expression evaluation, LIKE matching, predicate utilities. *)

module Value = Qs_storage.Value
module Schema = Qs_storage.Schema
module Expr = Qs_query.Expr

let schema =
  Schema.make "r" [ ("a", Value.TInt); ("b", Value.TStr); ("c", Value.TFloat) ]

let row a b c = [| Value.Int a; Value.Str b; Value.Float c |]

let ev p r = Expr.eval schema r p

let test_cmp () =
  let r = row 5 "x" 1.5 in
  Alcotest.(check bool) "a = 5" true (ev (Expr.Cmp (Expr.Eq, Expr.col "r" "a", Expr.vint 5)) r);
  Alcotest.(check bool) "a < 3 false" false (ev (Expr.Cmp (Expr.Lt, Expr.col "r" "a", Expr.vint 3)) r);
  Alcotest.(check bool) "a >= 5" true (ev (Expr.Cmp (Expr.Ge, Expr.col "r" "a", Expr.vint 5)) r);
  Alcotest.(check bool) "a <> 4" true (ev (Expr.Cmp (Expr.Ne, Expr.col "r" "a", Expr.vint 4)) r)

let test_null_comparisons_false () =
  let r = [| Value.Null; Value.Str "x"; Value.Float 1.0 |] in
  List.iter
    (fun op ->
      Alcotest.(check bool) "null cmp never true" false
        (ev (Expr.Cmp (op, Expr.col "r" "a", Expr.vint 0)) r))
    [ Expr.Eq; Expr.Ne; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge ]

let test_between_in () =
  let r = row 5 "x" 1.5 in
  Alcotest.(check bool) "between inclusive lo" true
    (ev (Expr.Between (Expr.col "r" "a", Value.Int 5, Value.Int 9)) r);
  Alcotest.(check bool) "between inclusive hi" true
    (ev (Expr.Between (Expr.col "r" "a", Value.Int 1, Value.Int 5)) r);
  Alcotest.(check bool) "not between" false
    (ev (Expr.Between (Expr.col "r" "a", Value.Int 6, Value.Int 9)) r);
  Alcotest.(check bool) "in list" true
    (ev (Expr.In_list (Expr.col "r" "a", [ Value.Int 1; Value.Int 5 ])) r);
  Alcotest.(check bool) "not in list" false
    (ev (Expr.In_list (Expr.col "r" "a", [ Value.Int 1; Value.Int 2 ])) r)

let test_null_handling () =
  let r = [| Value.Null; Value.Str "x"; Value.Float 1.0 |] in
  Alcotest.(check bool) "is null" true (ev (Expr.Is_null (Expr.col "r" "a")) r);
  Alcotest.(check bool) "not null false" false (ev (Expr.Not_null (Expr.col "r" "a")) r);
  Alcotest.(check bool) "in list with null lhs" false
    (ev (Expr.In_list (Expr.col "r" "a", [ Value.Null; Value.Int 1 ])) r)

let test_or () =
  let r = row 5 "x" 1.5 in
  Alcotest.(check bool) "or short true" true
    (ev
       (Expr.Or
          [
            Expr.Cmp (Expr.Eq, Expr.col "r" "a", Expr.vint 9);
            Expr.Cmp (Expr.Eq, Expr.col "r" "b", Expr.vstr "x");
          ])
       r);
  Alcotest.(check bool) "or all false" false
    (ev (Expr.Or [ Expr.Cmp (Expr.Eq, Expr.col "r" "a", Expr.vint 9) ]) r)

let test_arith () =
  let r = row 6 "x" 1.5 in
  let a_plus_1 = Expr.Arith (Expr.Add, Expr.col "r" "a", Expr.vint 1) in
  Alcotest.(check bool) "a+1 = 7" true (ev (Expr.Cmp (Expr.Eq, a_plus_1, Expr.vint 7)) r);
  let mixed = Expr.Arith (Expr.Mul, Expr.col "r" "c", Expr.vint 2) in
  Alcotest.(check bool) "1.5*2 = 3.0" true
    (ev (Expr.Cmp (Expr.Eq, mixed, Expr.vfloat 3.0)) r);
  (* null propagation *)
  let rnull = [| Value.Null; Value.Str "x"; Value.Float 1.0 |] in
  Alcotest.(check bool) "null + 1 = null" true
    (Value.is_null (Expr.eval_scalar schema rnull a_plus_1));
  (* integer division by zero -> NULL *)
  let div0 = Expr.Arith (Expr.Div, Expr.col "r" "a", Expr.vint 0) in
  Alcotest.(check bool) "div by zero null" true
    (Value.is_null (Expr.eval_scalar schema r div0))

let test_like_cases () =
  let cases =
    [
      ("abc", "abc", true);
      ("a%", "abc", true);
      ("%c", "abc", true);
      ("%b%", "abc", true);
      ("a_c", "abc", true);
      ("a_c", "abbc", false);
      ("%", "", true);
      ("", "", true);
      ("", "a", false);
      ("a%", "b", false);
      ("%%", "anything", true);
      ("a%c%e", "abcde", true);
      ("a%c%e", "ace", true);
      ("a%c%e", "aec", false);
      ("_", "", false);
      ("_", "x", true);
    ]
  in
  List.iter
    (fun (pat, s, expect) ->
      Alcotest.(check bool)
        (Printf.sprintf "'%s' LIKE '%s'" s pat)
        expect
        (Expr.like_match ~pattern:pat s))
    cases

(* reference LIKE matcher: brute force over possible %-expansions *)
let rec ref_like pat s =
  match pat with
  | [] -> s = []
  | '%' :: rest ->
      let rec try_suffix t = ref_like rest t || match t with [] -> false | _ :: tl -> try_suffix tl in
      try_suffix s
  | '_' :: rest -> ( match s with [] -> false | _ :: tl -> ref_like rest tl)
  | c :: rest -> ( match s with x :: tl when x = c -> ref_like rest tl | _ -> false)

let explode str = List.init (String.length str) (String.get str)

let qcheck_like_vs_reference =
  let pat_gen =
    QCheck.Gen.(
      string_size ~gen:(oneofl [ 'a'; 'b'; '%'; '_' ]) (int_range 0 6))
  in
  let str_gen = QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (int_range 0 8)) in
  QCheck.Test.make ~name:"LIKE matches reference" ~count:1000
    QCheck.(pair (make pat_gen) (make str_gen))
    (fun (pat, s) -> Expr.like_match ~pattern:pat s = ref_like (explode pat) (explode s))

(* --- Expr.compile against the interpreter ------------------------------ *)

(* Rows over five columns whose values mix NULL, NaN, both zeros, Int
   and Float of equal magnitude, and strings; a sixth column name is
   absent from the schema, so both paths must raise alike on it. *)
let wide_schema =
  Schema.make "r"
    [ ("a", Value.TInt); ("b", Value.TFloat); ("c", Value.TStr); ("d", Value.TInt);
      ("e", Value.TFloat) ]

let gen_value =
  QCheck.Gen.(
    frequency
      [
        (2, return Value.Null);
        (3, map (fun i -> Value.Int i) (int_range (-2) 2));
        ( 3,
          map
            (fun f -> Value.Float f)
            (oneofl [ Float.nan; -0.0; 0.0; 1.0; -1.0; 2.0; 0.5; Float.infinity ]) );
        (2, map (fun s -> Value.Str s) (oneofl [ ""; "a"; "ab"; "ba"; "1"; "a%" ]));
        (1, map (fun b -> Value.Bool b) bool);
      ])

let gen_colref =
  QCheck.Gen.(
    frequency
      [
        (12, map (fun n -> { Expr.rel = "r"; name = n }) (oneofl [ "a"; "b"; "c"; "d"; "e" ]));
        (1, return { Expr.rel = "r"; name = "missing" });
      ])

let gen_scalar =
  QCheck.Gen.(
    sized_size (int_range 0 2)
    @@ fix (fun self n ->
           let leaf =
             frequency
               [
                 (3, map (fun c -> Expr.Col c) gen_colref);
                 (2, map (fun v -> Expr.Const v) gen_value);
               ]
           in
           if n = 0 then leaf
           else
             frequency
               [
                 (3, leaf);
                 ( 1,
                   map3
                     (fun op a b -> Expr.Arith (op, a, b))
                     (oneofl [ Expr.Add; Expr.Sub; Expr.Mul; Expr.Div ])
                     (self (n - 1)) (self (n - 1)) );
               ]))

let gen_pred =
  QCheck.Gen.(
    sized_size (int_range 0 2)
    @@ fix (fun self n ->
           let atom =
             frequency
               [
                 ( 4,
                   map3
                     (fun op a b -> Expr.Cmp (op, a, b))
                     (oneofl [ Expr.Eq; Expr.Ne; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge ])
                     gen_scalar gen_scalar );
                 (1, map3 (fun s lo hi -> Expr.Between (s, lo, hi)) gen_scalar gen_value gen_value);
                 ( 1,
                   map2
                     (fun s vs -> Expr.In_list (s, vs))
                     gen_scalar (list_size (int_range 0 3) gen_value) );
                 ( 1,
                   map2
                     (fun s p -> Expr.Like (s, p))
                     gen_scalar
                     (string_size ~gen:(oneofl [ 'a'; 'b'; '%'; '_' ]) (int_range 0 4)) );
                 (1, map (fun s -> Expr.Is_null s) gen_scalar);
                 (1, map (fun s -> Expr.Not_null s) gen_scalar);
               ]
           in
           if n = 0 then atom
           else
             frequency
               [
                 (3, atom);
                 (1, map (fun ps -> Expr.Or ps) (list_size (int_range 0 3) (self (n - 1))));
               ]))

let gen_row = QCheck.Gen.(map Array.of_list (list_repeat 5 gen_value))

(* the observable result of one evaluation, exception included *)
let outcome f =
  match f () with
  | b -> Ok b
  | exception Invalid_argument m -> Error m

let qcheck_compile_vs_eval =
  let print (p, rows) =
    Printf.sprintf "%s over %s" (Expr.to_string p)
      (String.concat "; "
         (List.map
            (fun r ->
              "["
              ^ String.concat ", " (Array.to_list (Array.map (Format.asprintf "%a" Value.pp) r))
              ^ "]")
            rows))
  in
  QCheck.Test.make ~name:"Expr.compile = Expr.eval" ~count:2000
    (QCheck.make ~print QCheck.Gen.(pair gen_pred (list_size (int_range 1 6) gen_row)))
    (fun (p, rows) ->
      let compiled = Expr.compile wide_schema p in
      List.for_all
        (fun row ->
          outcome (fun () -> compiled row) = outcome (fun () -> Expr.eval wide_schema row p))
        rows)

let test_compile_edges () =
  let r = [| Value.Int 1; Value.Float Float.nan; Value.Str "ab"; Value.Null; Value.Float (-0.0) |] in
  let col n = Expr.col "r" n in
  let check name p =
    Alcotest.(check bool) name
      (Expr.eval wide_schema r p)
      (Expr.compile wide_schema p r)
  in
  check "NaN = NaN" (Expr.Cmp (Expr.Eq, col "b", Expr.vfloat Float.nan));
  check "-0.0 = 0.0 (const left)" (Expr.Cmp (Expr.Eq, Expr.vfloat 0.0, col "e"));
  check "Int 1 = Float 1.0" (Expr.Cmp (Expr.Eq, col "a", Expr.vfloat 1.0));
  check "NULL = NULL" (Expr.Cmp (Expr.Eq, col "d", col "d"));
  check "1 / 0 IS NULL" (Expr.Is_null (Expr.Arith (Expr.Div, col "a", Expr.vint 0)));
  check "LIKE a_" (Expr.Like (col "c", "a_"));
  check "IN with NaN" (Expr.In_list (col "b", [ Value.Float Float.nan ]));
  check "empty OR" (Expr.Or []);
  (* a missing column raises the interpreter's exception, and only when
     a row reaches it *)
  let missing = Expr.Cmp (Expr.Eq, Expr.col "r" "zz", Expr.vint 1) in
  let compiled = Expr.compile wide_schema missing in
  Alcotest.(check (result bool string)) "missing column raises alike"
    (outcome (fun () -> Expr.eval wide_schema r missing))
    (outcome (fun () -> compiled r));
  Alcotest.(check bool) "missing column raises" true
    (Result.is_error (outcome (fun () -> compiled r)));
  Alcotest.(check bool) "an OR that short-circuits never reaches it" true
    (Expr.compile wide_schema (Expr.Or [ Expr.Is_null (col "d"); missing ]) r);
  Alcotest.(check bool) "empty conjunction holds" true (Expr.compile_all wide_schema [] r)

let test_join_sides () =
  let p = Expr.eq (Expr.col "a" "x") (Expr.col "b" "y") in
  Alcotest.(check bool) "join pred detected" true (Expr.join_sides p <> None);
  let same_rel = Expr.eq (Expr.col "a" "x") (Expr.col "a" "y") in
  Alcotest.(check bool) "same-rel not join" true (Expr.join_sides same_rel = None);
  let filt = Expr.Cmp (Expr.Eq, Expr.col "a" "x", Expr.vint 1) in
  Alcotest.(check bool) "filter not join" true (Expr.join_sides filt = None)

let test_rels_and_cols () =
  let p =
    Expr.Cmp
      ( Expr.Lt,
        Expr.Arith (Expr.Add, Expr.col "a" "x", Expr.col "b" "y"),
        Expr.col "a" "z" )
  in
  Alcotest.(check (list string)) "rels in order" [ "a"; "b" ] (Expr.rels_of_pred p);
  Alcotest.(check int) "3 cols" 3 (List.length (Expr.cols_of_pred p));
  Alcotest.(check bool) "not single rel" false (Expr.is_single_rel p)

let test_rename_rels () =
  let p = Expr.eq (Expr.col "a" "x") (Expr.col "b" "y") in
  let p' = Expr.rename_rels (fun r -> if r = "a" then "T1" else r) p in
  Alcotest.(check (list string)) "renamed" [ "T1"; "b" ] (Expr.rels_of_pred p')

let test_symmetric_equality () =
  let p1 = Expr.eq (Expr.col "a" "x") (Expr.col "b" "y") in
  let p2 = Expr.eq (Expr.col "b" "y") (Expr.col "a" "x") in
  Alcotest.(check bool) "symmetric equal" true (Expr.equal_pred p1 p2);
  let p3 = Expr.Cmp (Expr.Lt, Expr.col "a" "x", Expr.col "b" "y") in
  Alcotest.(check bool) "lt not symmetric-eq" false (Expr.equal_pred p1 p3)

let test_to_string () =
  Alcotest.(check string) "cmp" "a.x = 5"
    (Expr.to_string (Expr.Cmp (Expr.Eq, Expr.col "a" "x", Expr.vint 5)));
  Alcotest.(check string) "like" "a.x LIKE 'h%'"
    (Expr.to_string (Expr.Like (Expr.col "a" "x", "h%")))

let suite =
  [
    Alcotest.test_case "comparisons" `Quick test_cmp;
    Alcotest.test_case "null comparisons" `Quick test_null_comparisons_false;
    Alcotest.test_case "between/in" `Quick test_between_in;
    Alcotest.test_case "null handling" `Quick test_null_handling;
    Alcotest.test_case "or" `Quick test_or;
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "like cases" `Quick test_like_cases;
    Alcotest.test_case "join sides" `Quick test_join_sides;
    Alcotest.test_case "rels/cols extraction" `Quick test_rels_and_cols;
    Alcotest.test_case "rename rels" `Quick test_rename_rels;
    Alcotest.test_case "symmetric equality" `Quick test_symmetric_equality;
    Alcotest.test_case "to_string" `Quick test_to_string;
    QCheck_alcotest.to_alcotest qcheck_like_vs_reference;
    Alcotest.test_case "compile edge cases" `Quick test_compile_edges;
    QCheck_alcotest.to_alcotest qcheck_compile_vs_eval;
  ]
