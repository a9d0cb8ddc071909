module Value = Qs_storage.Value

type t = { bounds : Value.t array }

(* Bound [i] of [b] buckets over [n] sorted values sits at this
   position; positions only grow with [i]. *)
let bound_pos ~n ~b i = if i = b then n - 1 else i * (n - 1) / b

let build values ~n_buckets =
  let non_null = Array.of_seq (Seq.filter (fun v -> not (Value.is_null v)) (Array.to_seq values)) in
  let n = Array.length non_null in
  if n = 0 then None
  else (
    Array.sort Value.compare non_null;
    let b = max 1 (min n_buckets n) in
    let bounds = Array.init (b + 1) (fun i -> non_null.(bound_pos ~n ~b i)) in
    Some { bounds })

(* [build]'s bounds from the distinct values, ascending, with their
   counts: position [pos] of the sorted values holds the first key whose
   cumulative count exceeds [pos]. *)
let of_sorted_counts keys ~n_buckets =
  let n = Array.fold_left (fun a (_, c) -> a + c) 0 keys in
  if n = 0 then None
  else begin
    let b = max 1 (min n_buckets n) in
    let bounds = Array.make (b + 1) Value.Null in
    let k = ref 0 and upto = ref (snd keys.(0)) in
    for i = 0 to b do
      let pos = bound_pos ~n ~b i in
      while pos >= !upto do
        incr k;
        upto := !upto + snd keys.(!k)
      done;
      bounds.(i) <- fst keys.(!k)
    done;
    Some { bounds }
  end

let n_buckets t = Array.length t.bounds - 1

let bounds t = t.bounds

let numeric = function Value.Int _ | Value.Float _ -> true | _ -> false

(* Fraction of values strictly below / at-or-below [x]. We locate x's bucket
   and interpolate linearly when the boundary values are numeric, matching
   the convert_to_scalar interpolation PostgreSQL performs. *)
let fraction t x ~inclusive =
  let b = n_buckets t in
  let bd = t.bounds in
  let cmp_lo = Value.compare x bd.(0) in
  let cmp_hi = Value.compare x bd.(b) in
  if cmp_lo < 0 || (cmp_lo = 0 && not inclusive) then 0.0
  else if cmp_hi > 0 || (cmp_hi = 0 && inclusive) then 1.0
  else begin
    (* find bucket i with bd.(i) <= x < bd.(i+1) (or last bucket) *)
    let lo = ref 0 and hi = ref (b - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if Value.compare bd.(mid) x <= 0 then lo := mid else hi := mid - 1
    done;
    let i = !lo in
    let left = bd.(i) and right = bd.(i + 1) in
    let within =
      if numeric left && numeric right then
        let l = Value.as_float left and r = Value.as_float right in
        if r > l then
          let v = Value.as_float x in
          min 1.0 (max 0.0 ((v -. l) /. (r -. l)))
        else 0.5
      else 0.5
    in
    (float_of_int i +. within) /. float_of_int b
  end

let fraction_le t x = fraction t x ~inclusive:true

let fraction_lt t x = fraction t x ~inclusive:false

let fraction_between t ~lo ~hi =
  if Value.compare hi lo < 0 then 0.0
  else max 0.0 (fraction_le t hi -. fraction_lt t lo)
