module Value = Qs_storage.Value
module Table = Qs_storage.Table
module Schema = Qs_storage.Schema
module Rng = Qs_util.Rng
module Zipf = Qs_util.Zipf

let serial n = Array.init n (fun i -> Value.Int (i + 1))

let zipf_ranks rng ~n ~domain ~theta =
  let z = Zipf.create ~n:domain ~theta in
  Array.init n (fun _ -> Zipf.sample z rng)

let permutation rng n =
  let perm = Array.init n (fun i -> i + 1) in
  Rng.shuffle rng perm;
  perm

let zipf_fk rng ~n ~domain ~theta =
  (* map rank -> id through a fixed permutation so the popular ids are
     scattered, not clustered at 1..k *)
  let perm = permutation rng domain in
  let ranks = zipf_ranks rng ~n ~domain ~theta in
  Array.map (fun r -> Value.Int perm.(r)) ranks

let rank_band_fk rng ~ranks ~rank_domain ~domain ~bands ~noise =
  let band_width = max 1 (domain / bands) in
  Array.map
    (fun rank ->
      if Rng.bernoulli rng noise then Value.Int (1 + Rng.int rng domain)
      else
        let band = min (bands - 1) (rank * bands / max 1 rank_domain) in
        let lo = band * band_width in
        let width = if band = bands - 1 then domain - lo else band_width in
        Value.Int (1 + lo + Rng.int rng (max 1 width)))
    ranks

let uniform_fk rng ~n ~domain =
  Array.init n (fun _ -> Value.Int (1 + Rng.int rng domain))

let correlated_fk rng ~base ~domain ~bands ~noise =
  let band_width = max 1 (domain / bands) in
  Array.map
    (fun bv ->
      if Rng.bernoulli rng noise then Value.Int (1 + Rng.int rng domain)
      else
        let h = Hashtbl.hash (Value.to_string bv) in
        let band = h mod bands in
        let lo = band * band_width in
        let width = if band = bands - 1 then domain - lo else band_width in
        Value.Int (1 + lo + Rng.int rng (max 1 width)))
    base

let tagged_strings rng ~n ~prefixes ~pool =
  let z = Zipf.create ~n:pool ~theta:0.8 in
  Array.init n (fun _ ->
      let p = Rng.choice rng prefixes in
      Value.Str (Printf.sprintf "%s_w%d" p (Zipf.sample z rng)))

let int_between rng ~n ~lo ~hi ~skew =
  let domain = hi - lo + 1 in
  let z = Zipf.create ~n:domain ~theta:skew in
  Array.init n (fun _ -> Value.Int (hi - Zipf.sample z rng))

let with_nulls rng ~frac values =
  Array.map (fun v -> if Rng.bernoulli rng frac then Value.Null else v) values

let table ?spill ~name cols =
  match cols with
  | [] -> invalid_arg "Datagen.table: no columns"
  | (_, _, first) :: _ ->
      let n = Array.length first in
      List.iter
        (fun (cname, _, vs) ->
          if Array.length vs <> n then
            invalid_arg (Printf.sprintf "Datagen.table %s: column %s length" name cname))
        cols;
      let schema =
        Array.of_list
          (List.map (fun (cname, ty, _) -> { Schema.rel = name; name = cname; ty }) cols)
      in
      let cols_arr = Array.of_list (List.map (fun (_, _, vs) -> vs) cols) in
      let rows = Array.init n (fun i -> Array.map (fun col -> col.(i)) cols_arr) in
      let t = Table.create ~inputs:[] ~name ~schema rows in
      match spill with None -> t | Some (dir, pool) -> Table.spill ~dir ~pool t
