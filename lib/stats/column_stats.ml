module Value = Qs_storage.Value

type t = {
  n_values : int;
  null_frac : float;
  n_distinct : int;
  min_v : Value.t option;
  max_v : Value.t option;
  mcvs : (Value.t * float) list;
  hist : Histogram.t option;
}

(* Only record MCVs that are genuinely more common than average; a
   uniform column keeps an empty MCV list, as in PostgreSQL. [by_freq]
   lists the keys with their counts, most common first. *)
let mcvs_of ~n_mcv ~nn ~n_distinct by_freq =
  let avg = float_of_int nn /. float_of_int n_distinct in
  by_freq
  |> List.filteri (fun i _ -> i < n_mcv)
  |> List.filter (fun (_, c) -> float_of_int c > avg *. 1.25 || n_distinct <= n_mcv)
  |> List.map (fun (v, c) -> (v, float_of_int c /. float_of_int nn))

(* ANALYZE by sorting every sample value, the path of columns that are
   not plain (see [rank]). *)
let of_values_sorting ~n_mcv ~n_buckets values =
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
      hist = None;
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
    {
      n_values = n;
      null_frac;
      n_distinct;
      min_v = Some sorted.(0);
      max_v = Some sorted.(nn - 1);
      mcvs = mcvs_of ~n_mcv ~nn ~n_distinct by_freq;
      hist = Histogram.build non_null ~n_buckets;
    }
  end

(* The distinct keys with their counts, in the order of the list
   [Hashtbl.fold (fun v c acc -> (v, c) :: acc)] builds: fold order
   reversed. That list's stable sort by count is the MCV order. *)
let entries counts =
  let d = Hashtbl.length counts in
  let out = Array.make d (Value.Null, 0) in
  let k = ref d in
  Hashtbl.iter
    (fun v c ->
      decr k;
      out.(!k) <- (v, !c))
    counts;
  out

(* The first [k] entries of the stable sort by count, descending, without
   the sort: [top] holds the best so far in that order, and an entry only
   passes one with a strictly smaller count, so on a tie the earlier
   entry stays ahead. *)
let top_by_count k entries =
  if k <= 0 then []
  else begin
    let top = Array.make k entries.(0) in
    let len = ref 0 in
    Array.iter
      (fun ((_, c) as e) ->
        if !len < k || c > snd top.(k - 1) then begin
          let j = ref (min !len (k - 1)) in
          while !j > 0 && snd top.(!j - 1) < c do
            top.(!j) <- top.(!j - 1);
            decr j
          done;
          top.(!j) <- e;
          if !len < k then incr len
        end)
      entries;
    Array.to_list (Array.sub top 0 !len)
  end

(* ANALYZE of a plain column from its distinct keys: one counting pass
   into the table [of_values_sorting] builds (same size, same insertion
   order, so the same fold order and MCV ties), a sort of the [d]
   distinct keys instead of the [nn] values, and min, max and histogram
   bounds read off the cumulative counts. *)
let of_values_distinct ~n_mcv ~n_buckets ~nn values =
  let n = Array.length values in
  let counts = Hashtbl.create (min nn 1024) in
  Array.iter
    (fun v ->
      if not (Value.is_null v) then
        match Hashtbl.find_opt counts v with
        | Some c -> incr c
        | None -> Hashtbl.add counts v (ref 1))
    values;
  let n_distinct = Hashtbl.length counts in
  let entries = entries counts in
  let sorted = Array.copy entries in
  Array.stable_sort (fun (a, _) (b, _) -> Value.compare a b) sorted;
  {
    n_values = n;
    null_frac = float_of_int (n - nn) /. float_of_int n;
    n_distinct;
    min_v = Some (fst sorted.(0));
    max_v = Some (fst sorted.(n_distinct - 1));
    mcvs = mcvs_of ~n_mcv ~nn ~n_distinct (top_by_count n_mcv entries);
    hist = Histogram.of_sorted_counts sorted ~n_buckets;
  }

(* A column is plain when its non-NULL values share one constructor and,
   for floats, none is NaN or -0.0. There [Value.compare]-equal values
   are identical (and equal under the table's [compare]), so the sorted
   sample is fixed by its distinct keys and their counts: whichever copy
   of a key a sort puts at a position, it is the same value. Rank 0 is
   NULL, -1 a float that breaks the rule. *)
let rank = function
  | Value.Null -> 0
  | Value.Bool _ -> 1
  | Value.Int _ -> 2
  | Value.Float f -> if Float.is_nan f || (f = 0.0 && Float.sign_bit f) then -1 else 3
  | Value.Str _ -> 4

let of_values ?(n_mcv = 10) ?(n_buckets = 64) values =
  let nn = ref 0 and kind = ref 0 in
  Array.iter
    (fun v ->
      match rank v with
      | 0 -> ()
      | r ->
          incr nn;
          if !kind = 0 then kind := r else if !kind <> r then kind := -1)
    values;
  if !kind > 0 then of_values_distinct ~n_mcv ~n_buckets ~nn:!nn values
  else of_values_sorting ~n_mcv ~n_buckets values

let mcv_total t = List.fold_left (fun a (_, f) -> a +. f) 0.0 t.mcvs

let mcv_freq t v = List.assoc_opt v t.mcvs

let max_freq t =
  match t.mcvs with
  | (_, f) :: _ -> f
  | [] -> if t.n_distinct = 0 then 1.0 else 1.0 /. float_of_int t.n_distinct

let byte_size_hint t =
  64
  + List.fold_left (fun a (v, _) -> a + Value.byte_size v + 8) 0 t.mcvs
  + match t.hist with
    | None -> 0
    | Some h -> Array.fold_left (fun a v -> a + Value.byte_size v) 0 (Histogram.bounds h)
