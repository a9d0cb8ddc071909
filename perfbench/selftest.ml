(* Self-tests of the benchmark's pure pieces: the percentile rule, the
   self-time fold, failure classification and the run order. *)

open Perfbench
module Span = Qs_util.Span

let close = Alcotest.float 1e-9

(* ---- percentiles ------------------------------------------------------ *)

let ints n = List.init n (fun i -> float_of_int (i + 1))

let test_p90_needs_ten_beyond () =
  Alcotest.(check (option close)) "99 samples: p90 unsupported" None
    (Pct.percentile ~q:0.9 (ints 99));
  Alcotest.(check (option close)) "100 samples: 10 lie beyond the 90th" (Some 90.0)
    (Pct.percentile ~q:0.9 (ints 100));
  Alcotest.(check (option close)) "p50 of 1..100" (Some 50.0)
    (Pct.percentile ~q:0.5 (ints 100));
  Alcotest.(check (option close)) "p50 of 20 samples" (Some 10.0)
    (Pct.percentile ~q:0.5 (ints 20));
  Alcotest.(check (option close)) "p99 unsupported below 1000 samples" None
    (Pct.percentile ~q:0.99 (ints 999))

let test_failures_sort_last () =
  let samples = List.rev (infinity :: infinity :: ints 98) in
  Alcotest.(check (option close)) "failed requests miss every limit" (Some 90.0)
    (Pct.percentile ~q:0.9 samples);
  Alcotest.(check (option close)) "p90 lands on a failure when 11% fail"
    (Some infinity)
    (Pct.percentile ~q:0.9 (List.init 11 (fun _ -> infinity) @ ints 89))

(* ---- self-time fold --------------------------------------------------- *)

let span ?(track = 0) ?(name = "s") id cat start dur =
  { Span.id; parent = -1; name; cat; track; start; dur; args = [] }

let layer (s : Span.span) =
  match s.Span.cat with
  | Span.Optimize | Span.Dp_level -> "optimizer"
  | Span.Estimate -> "estimator"
  | Span.Pipeline -> "pipeline"
  | Span.Breaker -> "breaker"
  | Span.Io -> "io"
  | _ -> "core"

let is_root (s : Span.span) = s.Span.name = "bench:query"

(* One query [0, 10] on track 0:
     optimize [1, 3] containing a dp-level [1, 2.5] recorded after the
       fact, which contains an estimate [1.5, 2];
     pipeline [3, 8] containing a breaker [4, 6] containing an io read
       [5, 5.5];
     a reopt-step journal marker [0.5, 6] covering the optimize sibling
       and half of the pipeline one, a zero-length operator marker, and a serve
       wait [0, 9];
   plus a prefetch read on another track, outside every root. *)
let hand_built =
  [
    span ~name:"bench:query" 1 Span.Execute 0.0 10.0;
    span 2 Span.Reopt_step 0.5 5.5;
    span 3 Span.Optimize 1.0 2.0;
    span 4 Span.Estimate 1.5 0.5;
    span 5 Span.Dp_level 1.0 1.5;
    span 6 Span.Pipeline 3.0 5.0;
    span 7 Span.Operator 3.0 0.0;
    span 8 Span.Breaker 4.0 2.0;
    span 9 Span.Io 5.0 0.5;
    span 10 Span.Serve 0.0 9.0;
    span ~track:1 11 Span.Io 2.0 1.0;
  ]

let test_fold_self_times () =
  let f = Fold.fold ~is_root ~layer hand_built in
  Alcotest.check close "core: 10 - optimize 2 - pipeline 5" 3.0 (Fold.self_s f "core");
  Alcotest.check close "optimizer: optimize 2 - dp 1.5, + dp 1.5 - estimate 0.5" 1.5
    (Fold.self_s f "optimizer");
  Alcotest.check close "estimator" 0.5 (Fold.self_s f "estimator");
  Alcotest.check close "pipeline: 5 - breaker 2" 3.0 (Fold.self_s f "pipeline");
  Alcotest.check close "breaker: 2 - io 0.5" 1.5 (Fold.self_s f "breaker");
  Alcotest.check close "io on the query's track only" 0.5 (Fold.self_s f "io");
  Alcotest.check close "self times sum to the root" 10.0 (Fold.total_self f);
  Alcotest.check close "roots" 10.0 f.Fold.roots;
  Alcotest.check close "prefetch read is unattributed" 1.0 f.Fold.unattributed;
  Alcotest.(check int) "markers are not folded" 2 (Fold.calls f "optimizer")

let test_fold_counting_marker_breaks_sum () =
  (* were the journal marker a layer, its partial overlap with the
     pipeline span would count [6, 8] twice: the self times would exceed
     the query's wall time and the residual would go negative *)
  let as_layer =
    List.map
      (fun (s : Span.span) ->
        if s.Span.cat = Span.Reopt_step then { s with Span.cat = Span.Analyze } else s)
      hand_built
  in
  let f = Fold.fold ~is_root ~layer as_layer in
  Alcotest.(check bool) "double counted" true (Fold.total_self f > f.Fold.roots +. 1.0)

(* ---- failure classification ------------------------------------------ *)

let cause = Alcotest.testable (fun fmt c -> Format.pp_print_string fmt (Failure.name c)) ( = )

let test_classify () =
  let c = Failure.classify ~deadline_s:5.0 ~expected:"abc" in
  Alcotest.(check (option cause)) "match" None (c ~elapsed_s:0.1 (Failure.Completed "abc"));
  Alcotest.(check (option cause)) "mismatch" (Some Failure.Digest_mismatch)
    (c ~elapsed_s:0.1 (Failure.Completed "abd"));
  Alcotest.(check (option cause)) "timeout well before the deadline is the row cap"
    (Some Failure.Row_cap) (c ~elapsed_s:0.9 Failure.Timed_out);
  Alcotest.(check (option cause)) "timeout at the deadline" (Some Failure.Deadline)
    (c ~elapsed_s:5.0 Failure.Timed_out);
  Alcotest.(check (option cause)) "timeout past the deadline" (Some Failure.Deadline)
    (c ~elapsed_s:5.3 Failure.Timed_out);
  Alcotest.(check (option cause)) "cancelled" (Some Failure.Cancelled)
    (c ~elapsed_s:0.2 Failure.Was_cancelled);
  Alcotest.(check (option cause)) "exception" (Some Failure.Exception)
    (c ~elapsed_s:0.2 (Failure.Raised "Not_found"))

let test_tally () =
  let t = Failure.tally () in
  Failure.add t Failure.Row_cap;
  Failure.add t Failure.Row_cap;
  Failure.add t Failure.Deadline;
  Alcotest.(check int) "total" 3 (Failure.total t);
  Alcotest.(check int) "row cap" 2 (Failure.count t Failure.Row_cap);
  Alcotest.(check int) "mismatch" 0 (Failure.count t Failure.Digest_mismatch)

(* ---- run order ---------------------------------------------------- *)

let test_order () =
  let pool = Array.init 5 Fun.id in
  let t = Order.rotated (Qs_util.Rng.create 7) pool ~rotation:3 in
  Alcotest.(check (list int)) "a permutation of the pool" [ 0; 1; 2; 3; 4 ]
    (List.sort compare (Array.to_list t));
  Alcotest.(check (array int)) "same seed, same trace" t
    (Order.rotated (Qs_util.Rng.create 7) pool ~rotation:3);
  let base = Order.rotated (Qs_util.Rng.create 7) pool ~rotation:0 in
  Alcotest.(check (array int)) "the rotation replays the same order" t
    (Array.init 5 (fun i -> base.((i + 3) mod 5)))

let () =
  Alcotest.run "perfbench"
    [
      ( "percentile",
        [
          Alcotest.test_case "p90 needs ten beyond" `Quick test_p90_needs_ten_beyond;
          Alcotest.test_case "failures sort last" `Quick test_failures_sort_last;
        ] );
      ( "fold",
        [
          Alcotest.test_case "self times" `Quick test_fold_self_times;
          Alcotest.test_case "journal marker as a layer" `Quick
            test_fold_counting_marker_breaks_sum;
        ] );
      ( "failure",
        [
          Alcotest.test_case "classify" `Quick test_classify;
          Alcotest.test_case "tally" `Quick test_tally;
        ] );
      ("order", [ Alcotest.test_case "rotation" `Quick test_order ]);
    ]
