(* Histograms, column statistics, ANALYZE, restriction selectivity. *)

module Value = Qs_storage.Value
module Schema = Qs_storage.Schema
module Table = Qs_storage.Table
module Histogram = Qs_stats.Histogram
module Column_stats = Qs_stats.Column_stats
module Table_stats = Qs_stats.Table_stats
module Analyze = Qs_stats.Analyze
module Selectivity = Qs_stats.Selectivity
module Expr = Qs_query.Expr

let ints xs = Array.of_list (List.map (fun i -> Value.Int i) xs)

let test_histogram_empty () =
  Alcotest.(check bool) "no values -> None" true
    (Histogram.build [| Value.Null; Value.Null |] ~n_buckets:4 = None)

let test_histogram_fraction_bounds () =
  let h = Option.get (Histogram.build (ints (List.init 100 (fun i -> i))) ~n_buckets:10) in
  Alcotest.(check (float 1e-9)) "below min" 0.0 (Histogram.fraction_le h (Value.Int (-1)));
  Alcotest.(check (float 1e-9)) "above max" 1.0 (Histogram.fraction_le h (Value.Int 200));
  let mid = Histogram.fraction_le h (Value.Int 49) in
  Alcotest.(check bool) "median around 0.5" true (mid > 0.4 && mid < 0.6)

let test_histogram_monotone () =
  let h = Option.get (Histogram.build (ints (List.init 50 (fun i -> i * 3))) ~n_buckets:8) in
  let prev = ref 0.0 in
  for x = -5 to 160 do
    let f = Histogram.fraction_le h (Value.Int x) in
    Alcotest.(check bool) "monotone" true (f >= !prev -. 1e-12);
    prev := f
  done

let test_histogram_between () =
  let h = Option.get (Histogram.build (ints (List.init 100 (fun i -> i))) ~n_buckets:10) in
  Alcotest.(check (float 1e-9)) "empty range" 0.0
    (Histogram.fraction_between h ~lo:(Value.Int 50) ~hi:(Value.Int 40));
  let f = Histogram.fraction_between h ~lo:(Value.Int 20) ~hi:(Value.Int 39) in
  Alcotest.(check bool) "about 20%" true (f > 0.12 && f < 0.28)

let test_column_stats_basics () =
  let cs = Column_stats.of_values (ints [ 1; 1; 1; 2; 3; 4; 5 ]) in
  Alcotest.(check int) "5 distinct" 5 cs.Column_stats.n_distinct;
  Alcotest.(check (float 1e-9)) "no nulls" 0.0 cs.Column_stats.null_frac;
  Alcotest.(check bool) "min" true (cs.Column_stats.min_v = Some (Value.Int 1));
  Alcotest.(check bool) "max" true (cs.Column_stats.max_v = Some (Value.Int 5));
  Alcotest.(check bool) "1 is an MCV" true
    (Column_stats.mcv_freq cs (Value.Int 1) <> None)

let test_column_stats_nulls () =
  let cs = Column_stats.of_values [| Value.Null; Value.Int 1; Value.Null; Value.Int 2 |] in
  Alcotest.(check (float 1e-9)) "half null" 0.5 cs.Column_stats.null_frac;
  Alcotest.(check int) "2 distinct" 2 cs.Column_stats.n_distinct

let test_column_stats_all_null () =
  let cs = Column_stats.of_values [| Value.Null; Value.Null |] in
  Alcotest.(check int) "0 distinct" 0 cs.Column_stats.n_distinct;
  Alcotest.(check bool) "no hist" true (cs.Column_stats.hist = None);
  Alcotest.(check (float 1e-9)) "max_freq fallback" 1.0 (Column_stats.max_freq cs)

let test_uniform_column_no_mcvs () =
  let cs = Column_stats.of_values (ints (List.init 1000 (fun i -> i))) in
  Alcotest.(check (list (pair (of_pp Value.pp) (float 0.0)))) "no MCVs on unique column"
    [] cs.Column_stats.mcvs

let sample_table () =
  let rows =
    Array.init 1000 (fun i ->
        [| Value.Int i; Value.Str (if i mod 10 = 0 then "hot" else "cold" ^ string_of_int i) |])
  in
  Table.create ~inputs:[] ~name:"t"
    ~schema:(Schema.make "t" [ ("id", Value.TInt); ("tag", Value.TStr) ])
    rows

let test_analyze () =
  let stats = Analyze.of_table (sample_table ()) in
  Alcotest.(check int) "row count" 1000 (Table_stats.n_rows stats);
  Alcotest.(check bool) "has col stats" true (Table_stats.has_column_stats stats);
  let id = Option.get (Table_stats.find stats ~rel:"t" ~name:"id") in
  Alcotest.(check int) "id distinct = 1000" 1000 id.Column_stats.n_distinct

let test_analyze_sampling_extrapolates () =
  let rows = Array.init 60_000 (fun i -> [| Value.Int i |]) in
  let t = Table.create ~inputs:[] ~name:"big" ~schema:(Schema.make "big" [ ("id", Value.TInt) ]) rows in
  let stats = Analyze.of_table ~sample:4000 t in
  let id = Option.get (Table_stats.find stats ~rel:"big" ~name:"id") in
  (* the sample saturates (all distinct), so ndv must extrapolate to ~60k *)
  Alcotest.(check bool) "extrapolated" true (id.Column_stats.n_distinct > 50_000)

(* per-chunk sampling: the proportional quotas must sum to the requested
   sample, so a sharded table extrapolates like a flat one *)
let test_analyze_chunked () =
  let rows = Array.init 60_000 (fun i -> [| Value.Int i |]) in
  let schema = Schema.make "big" [ ("id", Value.TInt) ] in
  let chunked = Table.create ~chunk_rows:1000 ~inputs:[] ~name:"big" ~schema rows in
  Alcotest.(check int) "60 chunks" 60 (Table.n_chunks chunked);
  let stats = Analyze.of_table ~sample:4000 chunked in
  Alcotest.(check int) "row count" 60_000 (Table_stats.n_rows stats);
  let id = Option.get (Table_stats.find stats ~rel:"big" ~name:"id") in
  Alcotest.(check bool) "extrapolated" true (id.Column_stats.n_distinct > 50_000)

let test_rowcount_only () =
  let stats = Analyze.rowcount_of_table (sample_table ()) in
  Alcotest.(check int) "rows" 1000 (Table_stats.n_rows stats);
  Alcotest.(check bool) "no col stats" false (Table_stats.has_column_stats stats);
  Alcotest.(check bool) "find none" true (Table_stats.find stats ~rel:"t" ~name:"id" = None)

(* selectivity over a concrete, known distribution *)
let stats_of_sample () =
  let stats = Analyze.of_table (sample_table ()) in
  fun (c : Expr.colref) -> Table_stats.find stats ~rel:c.Expr.rel ~name:c.Expr.name

let test_eq_selectivity_mcv () =
  let stats_of = stats_of_sample () in
  let sel = Selectivity.pred ~stats_of (Expr.Cmp (Expr.Eq, Expr.col "t" "tag", Expr.vstr "hot")) in
  Alcotest.(check bool) "hot ~ 10%" true (sel > 0.05 && sel < 0.2)

let test_range_selectivity () =
  let stats_of = stats_of_sample () in
  let sel = Selectivity.pred ~stats_of (Expr.Cmp (Expr.Lt, Expr.col "t" "id", Expr.vint 250)) in
  Alcotest.(check bool) "quarter" true (sel > 0.15 && sel < 0.35)

let test_between_selectivity () =
  let stats_of = stats_of_sample () in
  let sel =
    Selectivity.pred ~stats_of (Expr.Between (Expr.col "t" "id", Value.Int 100, Value.Int 299))
  in
  Alcotest.(check bool) "about 20%" true (sel > 0.1 && sel < 0.3)

let test_like_selectivity_prefix () =
  let stats_of = stats_of_sample () in
  let sel = Selectivity.pred ~stats_of (Expr.Like (Expr.col "t" "tag", "hot%")) in
  Alcotest.(check bool) "prefix like small" true (sel > 0.0 && sel < 0.3)

let test_conj_independence () =
  let stats_of = stats_of_sample () in
  let p1 = Expr.Cmp (Expr.Lt, Expr.col "t" "id", Expr.vint 500) in
  let p2 = Expr.Cmp (Expr.Eq, Expr.col "t" "tag", Expr.vstr "hot") in
  let s1 = Selectivity.pred ~stats_of p1 in
  let s2 = Selectivity.pred ~stats_of p2 in
  let both = Selectivity.conj ~stats_of [ p1; p2 ] in
  Alcotest.(check (float 1e-9)) "product rule" (s1 *. s2) both

(* regression: when the MCV list covers every observed distinct value
   (rest_distinct = 0), eq_sel used to fall back to default_eq_sel
   (0.005) for any value outside the list — overestimating misses against
   small complete domains. It must return the clamped residual mass. *)
let test_eq_sel_full_mcv_coverage () =
  let values = Array.init 100 (fun i -> Value.Int (if i < 90 then 1 else 2)) in
  let cs = Column_stats.of_values values in
  Alcotest.(check int) "2 distinct" 2 cs.Column_stats.n_distinct;
  Alcotest.(check int) "MCVs cover the domain" 2 (List.length cs.Column_stats.mcvs);
  let sel = Selectivity.eq_sel cs (Value.Int 999) in
  Alcotest.(check bool) "below the no-stats default" true
    (sel < Selectivity.default_eq_sel);
  let rarest =
    List.fold_left (fun a (_, f) -> Float.min a f) 1.0 cs.Column_stats.mcvs
  in
  Alcotest.(check bool) "capped by rarest MCV" true (sel <= rarest)

let test_prefix_successor () =
  Alcotest.(check (option string)) "ab -> ac" (Some "ac")
    (Selectivity.prefix_successor "ab");
  Alcotest.(check (option string)) "trailing 0xff dropped" (Some "b")
    (Selectivity.prefix_successor "a\xff");
  Alcotest.(check (option string)) "all 0xff -> none" None
    (Selectivity.prefix_successor "\xff\xff");
  Alcotest.(check (option string)) "empty -> none" None
    (Selectivity.prefix_successor "")

(* regression: the prefix range upper bound used to be [p ^ "\xff"], which
   excludes strings like "ab\xffq" that do start with "ab". With half the
   column above that old bound, the old estimate was ~half the truth. *)
let test_like_sel_high_byte_prefix () =
  let values =
    Array.init 100 (fun i ->
        Value.Str
          (if i < 25 then Printf.sprintf "ab%02d" i
           else if i < 50 then Printf.sprintf "ab\xff%02d" i
           else Printf.sprintf "zz%02d" i))
  in
  let cs = Column_stats.of_values values in
  let sel = Selectivity.like_sel (Some cs) "ab%" in
  (* truth is 0.5; the pre-fix bound captured only ~0.25 *)
  Alcotest.(check bool) "covers high-byte suffixes" true (sel > 0.4 && sel < 0.6)

let test_no_stats_defaults () =
  let stats_of _ = None in
  Alcotest.(check (float 1e-9)) "default eq" Selectivity.default_eq_sel
    (Selectivity.pred ~stats_of (Expr.Cmp (Expr.Eq, Expr.col "x" "c", Expr.vint 1)));
  Alcotest.(check (float 1e-9)) "default range" Selectivity.default_range_sel
    (Selectivity.pred ~stats_of (Expr.Cmp (Expr.Lt, Expr.col "x" "c", Expr.vint 1)))

let arbitrary_pred_sel =
  (* all selectivities must live in (0, 1] *)
  QCheck.Test.make ~name:"selectivity in (0,1]" ~count:300
    QCheck.(pair (int_range (-2000) 2000) (int_range 0 5))
    (fun (v, kind) ->
      let stats_of = stats_of_sample () in
      let c = Expr.col "t" "id" in
      let p =
        match kind with
        | 0 -> Expr.Cmp (Expr.Eq, c, Expr.vint v)
        | 1 -> Expr.Cmp (Expr.Lt, c, Expr.vint v)
        | 2 -> Expr.Cmp (Expr.Ge, c, Expr.vint v)
        | 3 -> Expr.Between (c, Value.Int v, Value.Int (v + 100))
        | 4 -> Expr.In_list (c, [ Value.Int v; Value.Int (v + 1) ])
        | _ -> Expr.Or [ Expr.Cmp (Expr.Eq, c, Expr.vint v) ]
      in
      let s = Selectivity.pred ~stats_of p in
      s > 0.0 && s <= 1.0)

(* --- distinct-key ANALYZE = the sort-every-value reference ----------- *)

let nan_payloads =
  [|
    Float.nan;
    Int64.float_of_bits 0x7FF0000000000001L;
    Int64.float_of_bits 0xFFF8000000000000L;
    Int64.float_of_bits 0x7FF8000000000ABCL;
  |]

(* Values of one column flavour. Plain flavours (one type; floats with no
   NaN and no -0.0) take the distinct-key path, the others the sorting
   path; both must match the reference. *)
let gen_value flavour =
  let open QCheck.Gen in
  let int_v = map (fun i -> Value.Int i) (int_range (-20) 20) in
  let float_v = map (fun i -> Value.Float (float_of_int i /. 4.0)) (int_range (-40) 40) in
  let str_v =
    map
      (fun (p, k) -> Value.Str (p ^ string_of_int k))
      (pair (oneofl [ ""; "a"; "ab"; "ab\000"; "abc" ]) (int_range 0 12))
  in
  let bool_v = map (fun b -> Value.Bool b) bool in
  let odd_float =
    oneof
      [
        map (fun i -> Value.Float nan_payloads.(i)) (int_bound 3);
        oneofl
          [ Value.Float 0.0; Value.Float (-0.0); Value.Float infinity; Value.Float neg_infinity ];
      ]
  in
  match flavour with
  | 0 -> int_v
  | 1 -> float_v
  | 2 -> str_v
  | 3 -> bool_v
  | 4 -> frequency [ (6, float_v); (1, odd_float) ]
  | _ ->
      (* Int 1 beside Float 1.0, and every other type *)
      let int_float = map (fun i -> Value.Float (float_of_int i)) (int_range (-20) 20) in
      oneof [ int_v; int_float; str_v; bool_v; odd_float ]

(* A column of [n] cells drawn from a pool of [d] values of one flavour,
   with a NULL share. Tie mode gives every pool value a count of 1 to 3,
   so the 10th MCV usually ties with its neighbours; otherwise draws are
   skewed toward the pool's head. The wide mode crosses the counting
   table's initial 1024 buckets and its resizes. *)
let gen_column =
  let open QCheck.Gen in
  let* flavour = int_bound 5 in
  let* wide = frequency [ (9, return false); (1, return true) ] in
  let* d = if wide then int_range 2000 5000 else int_range 1 40 in
  let* pool =
    if wide then return (Array.init d (fun i -> Value.Int (i * 7919 mod 100_003)))
    else array_size (return d) (gen_value flavour)
  in
  let* null_share = oneofl [ 0.0; 0.0; 0.1; 0.5; 1.0 ] in
  let* ties = bool in
  let* cells =
    if ties then begin
      let* counts = array_size (return d) (int_range 1 3) in
      let cells = List.concat (List.init d (fun i -> List.init counts.(i) (fun _ -> pool.(i)))) in
      shuffle_l cells
    end
    else
      let* n = if wide then int_range 2000 6000 else int_range 0 300 in
      list_size (return n)
        (map (fun (a, b) -> pool.(min a b)) (pair (int_bound (d - 1)) (int_bound (d - 1))))
  in
  let* cells =
    flatten_l
      (List.map
         (fun v ->
           map (fun u -> if u < null_share then Value.Null else v) (float_bound_exclusive 1.0))
         cells)
  in
  let* n_mcv = oneofl [ 0; 1; 3; 10; 10; 10 ] in
  let* n_buckets = oneofl [ 1; 5; 64; 64; 64; 100 ] in
  return (Array.of_list cells, n_mcv, n_buckets)

let print_column (cells, n_mcv, n_buckets) =
  Printf.sprintf "n_mcv=%d n_buckets=%d [%s]" n_mcv n_buckets
    (String.concat "; "
       (Array.to_list
          (Array.map
             (function
               | Value.Float f -> Printf.sprintf "Float %h" f
               | Value.Str s -> Printf.sprintf "%S" s
               | v -> Value.to_string v)
             cells)))

let distinct_key_analyze_exact =
  QCheck.Test.make ~name:"of_values = sort-every-value reference, bit for bit" ~count:600
    (QCheck.make ~print:print_column gen_column)
    (fun (cells, n_mcv, n_buckets) ->
      let got =
        Column_stats_oracle.of_column_stats (Column_stats.of_values ~n_mcv ~n_buckets cells)
      in
      let want = Column_stats_oracle.of_values ~n_mcv ~n_buckets cells in
      Column_stats_oracle.bits got = Column_stats_oracle.bits want)

(* The corner columns by name, on both paths. *)
let test_analyze_exact_corners () =
  let check name ?n_mcv ?n_buckets cells =
    let got =
      Column_stats_oracle.of_column_stats (Column_stats.of_values ?n_mcv ?n_buckets cells)
    in
    let want = Column_stats_oracle.of_values ?n_mcv ?n_buckets cells in
    Alcotest.(check bool) name true (Column_stats_oracle.bits got = Column_stats_oracle.bits want)
  in
  let f x = Value.Float x in
  check "empty" [||];
  check "all NULL" [| Value.Null; Value.Null |];
  check "single value" [| Value.Int 7 |];
  check "single value, NULLs" [| Value.Null; Value.Str "x"; Value.Null |];
  check "fewer values than buckets" (ints (List.init 30 (fun i -> i mod 7)));
  check "+0.0 then -0.0" [| f 0.0; f (-0.0); f 1.0; f 0.0 |];
  check "-0.0 then +0.0" [| f (-0.0); f 0.0; f (-0.0) |];
  check "NaN payloads" (Array.map f (Array.append nan_payloads [| 1.0; nan_payloads.(2) |]));
  check "Int 1 and Float 1.0" [| Value.Int 1; f 1.0; Value.Int 1; f 1.0; f 2.0 |];
  check "bools" [| Value.Bool true; Value.Bool false; Value.Bool true |];
  check "shared prefixes"
    (Array.map (fun s -> Value.Str s) [| "ab"; "a"; "abc"; "ab"; ""; "a\000" |]);
  (* 15 values all seen twice: which ten are the MCVs is the tie order *)
  check "tie at the 10th MCV" ~n_mcv:10
    (Array.init 40 (fun i -> if i < 30 then Value.Int (i mod 15) else Value.Int (100 + i)))

let suite =
  [
    Alcotest.test_case "histogram empty" `Quick test_histogram_empty;
    Alcotest.test_case "histogram bounds" `Quick test_histogram_fraction_bounds;
    Alcotest.test_case "histogram monotone" `Quick test_histogram_monotone;
    Alcotest.test_case "histogram between" `Quick test_histogram_between;
    Alcotest.test_case "column stats basics" `Quick test_column_stats_basics;
    Alcotest.test_case "column stats nulls" `Quick test_column_stats_nulls;
    Alcotest.test_case "column stats all null" `Quick test_column_stats_all_null;
    Alcotest.test_case "uniform no mcvs" `Quick test_uniform_column_no_mcvs;
    Alcotest.test_case "analyze" `Quick test_analyze;
    Alcotest.test_case "analyze sampling" `Quick test_analyze_sampling_extrapolates;
    Alcotest.test_case "rowcount only" `Quick test_rowcount_only;
    Alcotest.test_case "eq sel via mcv" `Quick test_eq_selectivity_mcv;
    Alcotest.test_case "range sel" `Quick test_range_selectivity;
    Alcotest.test_case "between sel" `Quick test_between_selectivity;
    Alcotest.test_case "like prefix sel" `Quick test_like_selectivity_prefix;
    Alcotest.test_case "eq sel: full MCV coverage" `Quick test_eq_sel_full_mcv_coverage;
    Alcotest.test_case "prefix successor" `Quick test_prefix_successor;
    Alcotest.test_case "like sel: high-byte prefix" `Quick test_like_sel_high_byte_prefix;
    Alcotest.test_case "analyze chunked table" `Quick test_analyze_chunked;
    Alcotest.test_case "conjunction independence" `Quick test_conj_independence;
    Alcotest.test_case "no-stats defaults" `Quick test_no_stats_defaults;
    QCheck_alcotest.to_alcotest arbitrary_pred_sel;
    Alcotest.test_case "analyze exact: corner columns" `Quick test_analyze_exact_corners;
    QCheck_alcotest.to_alcotest distinct_key_analyze_exact;
  ]
