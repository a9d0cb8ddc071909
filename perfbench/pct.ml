(* Percentiles under the benchmark's reporting rule: a percentile is
   only reported when at least [min_tail] samples lie beyond it, so a
   p90 needs at least 100 samples. Nearest-rank on the sorted samples;
   [infinity] entries (failed requests) sort last and therefore count
   as missing any latency limit. *)

let min_tail = 10

let rank ~q n = max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)

let supported ~q n = n > 0 && n - 1 - rank ~q n >= min_tail

let sorted samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

let percentile ~q samples =
  let a = sorted samples in
  let n = Array.length a in
  if supported ~q n then Some a.(rank ~q n) else None

(* Like [percentile] but for diagnostics that may have few samples:
   falls back to the largest sample, and to 0 on no samples. *)
let percentile_or_max ~q samples =
  match percentile ~q samples with
  | Some v -> v
  | None -> List.fold_left Float.max 0.0 samples

let ratio num den = if den <= 0 then 0.0 else float_of_int num /. float_of_int den
