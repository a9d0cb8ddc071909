(* Reference ANALYZE of one column: the sort-every-value algorithm
   [Column_stats.of_values] replaced for plain columns, kept verbatim
   (histogram bounds included) so the distinct-key path can be checked
   against it bit for bit. The histogram is returned as its bounds. *)

module Value = Qs_storage.Value

type t = {
  n_values : int;
  null_frac : float;
  n_distinct : int;
  min_v : Value.t option;
  max_v : Value.t option;
  mcvs : (Value.t * float) list;
  bounds : Value.t array option;
}

let histogram_bounds values ~n_buckets =
  let non_null = Array.of_seq (Seq.filter (fun v -> not (Value.is_null v)) (Array.to_seq values)) in
  let n = Array.length non_null in
  if n = 0 then None
  else (
    Array.sort Value.compare non_null;
    let b = max 1 (min n_buckets n) in
    Some
      (Array.init (b + 1) (fun i ->
           let pos = if i = b then n - 1 else i * (n - 1) / b in
           non_null.(pos))))

let of_values ?(n_mcv = 10) ?(n_buckets = 64) values =
  let n = Array.length values in
  let non_null = Array.of_seq (Seq.filter (fun v -> not (Value.is_null v)) (Array.to_seq values)) in
  let nn = Array.length non_null in
  let null_frac = if n = 0 then 0.0 else float_of_int (n - nn) /. float_of_int n in
  if nn = 0 then
    {
      n_values = n;
      null_frac;
      n_distinct = 0;
      min_v = None;
      max_v = None;
      mcvs = [];
      bounds = None;
    }
  else begin
    let counts = Hashtbl.create (min nn 1024) in
    Array.iter
      (fun v ->
        Hashtbl.replace counts v (1 + Option.value (Hashtbl.find_opt counts v) ~default:0))
      non_null;
    let n_distinct = Hashtbl.length counts in
    let sorted = Array.copy non_null in
    Array.sort Value.compare sorted;
    let by_freq =
      Hashtbl.fold (fun v c acc -> (v, c) :: acc) counts []
      |> List.sort (fun (_, a) (_, b) -> compare b a)
    in
    let avg = float_of_int nn /. float_of_int n_distinct in
    let mcvs =
      by_freq
      |> List.filteri (fun i _ -> i < n_mcv)
      |> List.filter (fun (_, c) -> float_of_int c > avg *. 1.25 || n_distinct <= n_mcv)
      |> List.map (fun (v, c) -> (v, float_of_int c /. float_of_int nn))
    in
    {
      n_values = n;
      null_frac;
      n_distinct;
      min_v = Some sorted.(0);
      max_v = Some sorted.(nn - 1);
      mcvs;
      bounds = histogram_bounds non_null ~n_buckets;
    }
  end

(* [Column_stats.t] in the oracle's shape *)
let of_column_stats (cs : Qs_stats.Column_stats.t) =
  {
    n_values = cs.n_values;
    null_frac = cs.null_frac;
    n_distinct = cs.n_distinct;
    min_v = cs.min_v;
    max_v = cs.max_v;
    mcvs = cs.mcvs;
    bounds = Option.map Qs_stats.Histogram.bounds cs.hist;
  }

(* Byte-exact comparison: structural [compare] cannot tell [-0.0] from
   [0.0] or one NaN payload from another, their marshalled bits can. *)
let bits (t : t) = Marshal.to_string t [ Marshal.No_sharing ]
