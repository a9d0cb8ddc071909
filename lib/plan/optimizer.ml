module Catalog = Qs_storage.Catalog
module Table = Qs_storage.Table
module Expr = Qs_query.Expr
module Fragment = Qs_stats.Fragment
module Estimator = Qs_stats.Estimator
module Table_stats = Qs_stats.Table_stats
module Column_stats = Qs_stats.Column_stats
module Span = Qs_util.Span
module Timer = Qs_util.Timer

type result = {
  plan : Physical.t;
  est_rows : float;
  est_cost : float;
}

(* Above this input count the exact DP (3^n partition sweep) gives way to
   the greedy fallback. *)
let dp_limit = 13

let estimate_subset (est : Estimator.t) frag subset =
  est.card (Fragment.restrict frag subset)

(* --- helpers over bitmask subsets ------------------------------------ *)

let bit i = 1 lsl i

(* position of the single set bit of a one-hot mask *)
let bit_index mask =
  let rec go i m = if m land 1 = 1 then i else go (i + 1) (m lsr 1) in
  go 0 mask

let subset_inputs inputs mask =
  List.filteri (fun i _ -> mask land bit i <> 0) (Array.to_list inputs)

(* Predicates with relations on both sides of the partition. *)
let _cross_preds frag inputs lmask rmask =
  let aliases_of mask =
    List.concat_map (fun i -> i.Fragment.provides) (subset_inputs inputs mask)
  in
  let la = aliases_of lmask and ra = aliases_of rmask in
  List.filter
    (fun p ->
      let rels = Expr.rels_of_pred p in
      List.exists (fun r -> List.mem r la) rels
      && List.exists (fun r -> List.mem r ra) rels
      && List.for_all (fun r -> List.mem r la || List.mem r ra) rels)
    frag.Fragment.preds

(* The inner-side index usable for an index nested-loop join: the inner is
   a single base input and one of the equi-join predicates touches an
   indexed column of it. *)
let usable_index catalog (inner : Fragment.input) preds =
  (* orient an equality predicate wrt the inner input: [None] when it is
     not an equality or when neither side belongs to the inner input *)
  let oriented p =
    match Expr.join_sides p with
    | None -> None
    | Some (a, b) ->
        if List.mem a.Expr.rel inner.Fragment.provides then Some (a, b)
        else if List.mem b.Expr.rel inner.Fragment.provides then Some (b, a)
        else None
  in
  if inner.Fragment.is_temp then None
  else
    match inner.Fragment.base_table with
    | None -> None
    | Some base ->
        List.find_map
          (fun p ->
            match oriented p with
            | None -> None
            | Some (inner_key, outer_key) ->
                Catalog.find_index catalog ~table:base ~column:inner_key.Expr.name
                |> Option.map (fun ix -> (ix, outer_key, inner_key, p)))
          preds

(* Expected total index hits before residual predicates: one lookup per
   outer row, each matching raw_inner_rows/ndv(inner key) entries. *)
let index_matches (inner : Fragment.input) (inner_key : Expr.colref) ~outer_rows =
  let raw = float_of_int (Table_stats.n_rows inner.Fragment.stats) in
  let ndv =
    match Table_stats.find inner.Fragment.stats ~rel:inner_key.Expr.rel ~name:inner_key.Expr.name with
    | Some cs when cs.Column_stats.n_distinct > 0 -> float_of_int cs.Column_stats.n_distinct
    | _ -> Float.max 1.0 raw
  in
  outer_rows *. Float.max 1.0 (raw /. ndv)

let scan_node (input : Fragment.input) ~est_rows =
  let raw = float_of_int (Table_stats.n_rows input.Fragment.stats) in
  let cost = Cost_model.scan ~rows:raw ~n_filters:(List.length input.Fragment.filters) in
  Physical.scan input ~est_rows ~est_cost:cost

(* All physical candidates for joining two planned sides. *)
let join_candidates ~allowed catalog (left : Physical.t) (right : Physical.t) preds ~out_rows =
  let equi = List.exists (fun p -> Expr.join_sides p <> None) preds in
  let permitted m = List.mem m allowed in
  let hash_candidates =
    if (not equi) || not (permitted Physical.Hash) then []
    else
      [ (left, right); (right, left) ]
      |> List.map (fun (build, probe) ->
             let cost =
               build.Physical.est_cost +. probe.Physical.est_cost
               +. Cost_model.hash_join ~build_rows:build.Physical.est_rows
                    ~probe_rows:probe.Physical.est_rows ~out_rows
             in
             Physical.join ~method_:Physical.Hash () ~left:build ~right:probe ~preds
               ~est_rows:out_rows ~est_cost:cost)
  in
  let index_candidates =
    (if permitted Physical.Index_nl then [ (left, right); (right, left) ] else [])
    |> List.filter_map (fun (outer, inner) ->
           match inner.Physical.node with
           | Physical.Scan inner_input -> (
               match usable_index catalog inner_input preds with
               | Some (ix, outer_key, inner_key, _) ->
                   let matches =
                     index_matches inner_input inner_key
                       ~outer_rows:outer.Physical.est_rows
                   in
                   let inner_raw =
                     float_of_int (Table_stats.n_rows inner_input.Fragment.stats)
                   in
                   let cost =
                     outer.Physical.est_cost
                     +. Cost_model.index_nl_join ~outer_rows:outer.Physical.est_rows
                          ~inner_rows:inner_raw ~matches ~out_rows
                   in
                   Some
                     (Physical.join ~method_:Physical.Index_nl
                        ~index:(ix, outer_key, inner_key) () ~left:outer ~right:inner
                        ~preds ~est_rows:out_rows ~est_cost:cost)
               | None -> None)
           | _ -> None)
  in
  let nl_candidates =
    (if permitted Physical.Nl || (not equi) || hash_candidates = [] then
       [ (left, right); (right, left) ]
     else [])
    |> List.map (fun (outer, inner) ->
           let cost =
             outer.Physical.est_cost +. inner.Physical.est_cost
             +. Cost_model.nl_join ~outer_rows:outer.Physical.est_rows
                  ~inner_rows:inner.Physical.est_rows ~out_rows
           in
           Physical.join ~method_:Physical.Nl () ~left:outer ~right:inner ~preds
             ~est_rows:out_rows ~est_cost:cost)
  in
  hash_candidates @ index_candidates @ nl_candidates

let best_of candidates =
  match candidates with
  | [] -> None
  | c :: rest ->
      Some
        (List.fold_left
           (fun acc n -> if n.Physical.est_cost < acc.Physical.est_cost then n else acc)
           c rest)

(* --- exact DP --------------------------------------------------------- *)

let popcount m =
  let rec go acc m = if m = 0 then acc else go (acc + (m land 1)) (m lsr 1) in
  go 0 m

let dp_plan ?spans ?memo ~allowed catalog (est : Estimator.t) (frag : Fragment.t) =
  let inputs = Array.of_list frag.inputs in
  let n = Array.length inputs in
  let full = (1 lsl n) - 1 in
  (* precompute, per predicate, the bitmask of inputs it touches *)
  let alias_bit = Hashtbl.create 16 in
  Array.iteri
    (fun i input ->
      List.iter (fun a -> Hashtbl.replace alias_bit a (bit i)) input.Fragment.provides)
    inputs;
  let pred_masks =
    List.map
      (fun p ->
        let m =
          List.fold_left
            (fun acc a -> acc lor Option.value (Hashtbl.find_opt alias_bit a) ~default:0)
            0 (Expr.rels_of_pred p)
        in
        (p, m))
      frag.Fragment.preds
  in
  let cross l r =
    List.filter_map
      (fun (p, m) ->
        if m land l <> 0 && m land r <> 0 && m land lnot (l lor r) = 0 then Some p
        else None)
      pred_masks
  in
  (* Flat views of the predicates for the partition sweep. [cross] above
     materializes a list per partition — fine for [build], which runs once
     per chosen node, but the sweep visits ~3^n partitions and a list (plus
     closure) per partition floods the minor heap. The sweep therefore
     scans these arrays in place, allocating nothing.
     Order matters for byte-identical plans: [pmask_arr]/[sides_arr] keep
     [pred_masks] order, which is the order [cross] yields. *)
  let pmask_arr = Array.of_list (List.map snd pred_masks) in
  let sides_arr =
    Array.of_list (List.map (fun (p, _) -> Expr.join_sides p) pred_masks)
  in
  let n_preds = Array.length pmask_arr in
  (* does predicate [i] connect partition [l]|[r] (touch both sides, leak
     outside neither)? *)
  let applies i l r =
    let m = pmask_arr.(i) in
    m land l <> 0 && m land r <> 0 && m land lnot (l lor r) = 0
  in
  let rec crossing i l r = i < n_preds && (applies i l r || crossing (i + 1) l r) in
  let rec crossing_equi i l r =
    i < n_preds
    && ((applies i l r && sides_arr.(i) <> None) || crossing_equi (i + 1) l r)
  in
  (* [usable_index] on the flat views: first predicate in [pred_masks]
     order that connects the partition, is an equality, and keys an indexed
     column of [inner] — same pick as [usable_index catalog inner (cross l r)],
     without building the list. Only the inner key is needed for costing. *)
  let usable_inner_key (inner : Fragment.input) l r =
    if inner.Fragment.is_temp then None
    else
      match inner.Fragment.base_table with
      | None -> None
      | Some base ->
          let rec go i =
            if i >= n_preds then None
            else
              let next () = go (i + 1) in
              if not (applies i l r) then next ()
              else
                match sides_arr.(i) with
                | None -> next ()
                | Some (a, b) ->
                    let key =
                      if List.mem a.Expr.rel inner.Fragment.provides then Some a
                      else if List.mem b.Expr.rel inner.Fragment.provides then Some b
                      else None
                    in
                    (match key with
                    | None -> next ()
                    | Some inner_key -> (
                        match
                          Catalog.find_index catalog ~table:base
                            ~column:inner_key.Expr.name
                        with
                        | Some _ -> Some inner_key
                        | None -> next ()))
          in
          go 0
  in
  (* Cardinalities, memoized per subset in a flat array (nan = unknown). *)
  let card_arr = Array.make (full + 1) Float.nan in
  let card mask =
    let c = card_arr.(mask) in
    if Float.is_nan c then begin
      let c = estimate_subset est frag (subset_inputs inputs mask) in
      card_arr.(mask) <- c;
      c
    end
    else c
  in
  let permitted m = List.mem m allowed in
  (* The DP keeps, per subset, only the best cost plus a compact spec of
     how it is achieved; Physical nodes are built once at the end. This
     keeps the 3^n partition sweep allocation-free. *)
  let best_cost = Array.make (full + 1) Float.infinity in
  (* spec: -1 = unset, 0 = scan; otherwise (method, lmask) with lmask the
     Physical left role (hash build / NL outer). *)
  let best_spec : (Physical.join_method * int) option array = Array.make (full + 1) None in
  for i = 0 to n - 1 do
    let input = inputs.(i) in
    let raw = float_of_int (Table_stats.n_rows input.Fragment.stats) in
    best_cost.(bit i) <-
      Cost_model.scan ~rows:raw ~n_filters:(List.length input.Fragment.filters);
    best_spec.(bit i) <- Some (Physical.Nl, 0) (* placeholder; scans detected by mask size *);
    ignore (card (bit i))
  done;
  let singleton mask = mask land (mask - 1) = 0 in
  let index_join_cost ~outer_mask ~inner_mask ~out_rows =
    (* inner must be a single base input with a usable index *)
    if not (singleton inner_mask) then Float.nan
    else
      let inner = inputs.(bit_index inner_mask) in
      match usable_inner_key inner outer_mask inner_mask with
      | None -> Float.nan
      | Some inner_key ->
          let matches =
            index_matches inner inner_key
              ~outer_rows:(card outer_mask)
          in
          let inner_raw = float_of_int (Table_stats.n_rows inner.Fragment.stats) in
          best_cost.(outer_mask)
          +. Cost_model.index_nl_join ~outer_rows:(card outer_mask)
               ~inner_rows:inner_raw ~matches ~out_rows
  in
  (* [process] only writes [best_cost.(mask)] / [best_spec.(mask)] and
     reads strictly smaller masks. [em]/[pr] count candidates that
     improved the subset's best vs. candidates dominated at evaluation
     time. *)
  let process ~em ~pr mask =
    begin
      let out_rows = card mask in
      (* [try_spec] takes the spec fields apart so the winning pair is only
         allocated on an actual improvement, not per candidate *)
      let consider ~equi l r =
        let lr = card l and rr = card r in
        let try_spec cost method_ lmask =
          if cost < best_cost.(mask) then begin
            best_cost.(mask) <- cost;
            best_spec.(mask) <- Some (method_, lmask);
            incr em
          end
          else incr pr
        in
        if equi && permitted Physical.Hash then begin
          try_spec
            (best_cost.(l) +. best_cost.(r)
            +. Cost_model.hash_join ~build_rows:lr ~probe_rows:rr ~out_rows)
            Physical.Hash l;
          try_spec
            (best_cost.(l) +. best_cost.(r)
            +. Cost_model.hash_join ~build_rows:rr ~probe_rows:lr ~out_rows)
            Physical.Hash r
        end;
        if equi && permitted Physical.Index_nl then begin
          let cl = index_join_cost ~outer_mask:l ~inner_mask:r ~out_rows in
          if not (Float.is_nan cl) then try_spec cl Physical.Index_nl l;
          let cr = index_join_cost ~outer_mask:r ~inner_mask:l ~out_rows in
          if not (Float.is_nan cr) then try_spec cr Physical.Index_nl r
        end;
        (* NL is also the fallback of last resort, exactly as in
           [join_candidates]: without it, [allowed = [Index_nl]] and no
           usable index would leave [best_spec] unset and [build] would
           raise. An index join may or may not apply (it depends on the
           catalog), so the fallback keys on hash join availability. *)
        let hash_possible = equi && permitted Physical.Hash in
        if permitted Physical.Nl || (not equi) || not hash_possible then begin
          try_spec
            (best_cost.(l) +. best_cost.(r)
            +. Cost_model.nl_join ~outer_rows:lr ~inner_rows:rr ~out_rows)
            Physical.Nl l;
          try_spec
            (best_cost.(l) +. best_cost.(r)
            +. Cost_model.nl_join ~outer_rows:rr ~inner_rows:lr ~out_rows)
            Physical.Nl r
        end
      in
      let any_connected = ref false in
      let sub = ref ((mask - 1) land mask) in
      while !sub > 0 do
        let l = !sub and r = mask lxor !sub in
        if l < r && best_cost.(l) < Float.infinity && best_cost.(r) < Float.infinity
        then
          if crossing 0 l r then begin
            any_connected := true;
            consider ~equi:(crossing_equi 0 l r) l r
          end;
        sub := (!sub - 1) land mask
      done;
      if not !any_connected then begin
        (* cartesian partitions only when the subset is disconnected *)
        let sub = ref ((mask - 1) land mask) in
        while !sub > 0 do
          let l = !sub and r = mask lxor !sub in
          if l < r && best_cost.(l) < Float.infinity && best_cost.(r) < Float.infinity
          then consider ~equi:false l r;
          sub := (!sub - 1) land mask
        done
      end
    end
  in
  (* Level-wise enumeration (DPsize order): a subset only ever combines
     two strictly smaller subsets, so grouping masks by popcount leaves
     the DP unchanged — and gives the tracer one [dp-level] span per
     level. *)
  let levels = Array.make (n + 1) [] in
  for mask = full downto 1 do
    let k = popcount mask in
    if k >= 2 then levels.(k) <- mask :: levels.(k)
  done;
  (* --- cross-step memo pre-pass ---------------------------------------
     A key captures everything the enumeration of a subset depends on:
     the estimator, the permitted methods, each input's provenance and
     epochs (registry stats epoch + the memo's per-alias epoch, bumped on
     temp registration), and the predicates internal to the subset. A hit
     therefore proves the identical deterministic sweep already ran, and
     seeding its winner is byte-identical to re-running [process]. *)
  let keys = Array.make (full + 1) "" in
  let hit = Array.make (full + 1) false in
  let memo_h0, memo_m0 =
    match memo with Some m -> (Dp_memo.hits m, Dp_memo.misses m) | None -> (0, 0)
  in
  (match memo with
  | None -> ()
  | Some memo ->
      let mname = function
        | Physical.Hash -> "h"
        | Physical.Index_nl -> "i"
        | Physical.Nl -> "n"
      in
      let prefix =
        est.Estimator.name ^ ":" ^ String.concat "" (List.map mname allowed) ^ ";"
      in
      let input_keys =
        Array.map
          (fun (i : Fragment.input) ->
            let alias_epoch =
              List.fold_left
                (fun acc a -> max acc (Dp_memo.alias_epoch memo a))
                0 i.Fragment.provides
            in
            Printf.sprintf "%s#%d@%d" i.Fragment.provenance i.Fragment.stats_epoch
              alias_epoch)
          inputs
      in
      let pred_strs = List.map (fun (p, m) -> (Expr.to_string p, m)) pred_masks in
      let key_of mask =
        let parts = ref [] in
        for i = n - 1 downto 0 do
          if mask land bit i <> 0 then parts := input_keys.(i) :: !parts
        done;
        let preds =
          List.filter_map
            (fun (s, m) -> if m <> 0 && m land mask = m then Some s else None)
            pred_strs
        in
        prefix
        ^ String.concat "|" (List.sort compare !parts)
        ^ "||"
        ^ String.concat "&" (List.sort compare preds)
      in
      (* reconstruct the winning partition's left mask from its aliases;
         an input is on the left iff its aliases are (all members move
         together, so the first suffices) *)
      let lmask_of_aliases left_aliases mask =
        let lm = ref 0 in
        for i = 0 to n - 1 do
          if mask land bit i <> 0 then
            match inputs.(i).Fragment.provides with
            | a :: _ when List.mem a left_aliases -> lm := !lm lor bit i
            | _ -> ()
        done;
        !lm
      in
      for level = 2 to n do
        List.iter
          (fun mask ->
            keys.(mask) <- key_of mask;
            match Dp_memo.find memo keys.(mask) with
            | Some (spec : Dp_memo.spec) ->
                let lmask = lmask_of_aliases spec.Dp_memo.left_aliases mask in
                if lmask <> 0 && lmask <> mask then begin
                  best_cost.(mask) <- spec.Dp_memo.cost;
                  best_spec.(mask) <- Some (spec.Dp_memo.method_, lmask);
                  card_arr.(mask) <- spec.Dp_memo.card;
                  hit.(mask) <- true
                end
            | None -> ())
          levels.(level)
      done);
  for level = 2 to n do
    match levels.(level) with
    | [] -> ()
    | lmasks ->
        let t0 = Timer.now () in
        let em = ref 0 and pr = ref 0 and hits = ref 0 in
        List.iter
          (fun m -> if hit.(m) then incr hits else process ~em ~pr m)
          lmasks;
        Span.add spans Span.Dp_level
          ~args:
            [
              ("subsets", string_of_int (List.length lmasks));
              ("emitted", string_of_int !em);
              ("pruned", string_of_int !pr);
              ("memo-hits", string_of_int !hits);
            ]
          (Printf.sprintf "dp-level-%d" level)
          ~start:t0
          ~dur:(Timer.now () -. t0)
  done;
  (match memo with
  | None -> ()
  | Some memo ->
      for level = 2 to n do
        List.iter
          (fun mask ->
            if not hit.(mask) then
              match best_spec.(mask) with
              | Some (method_, lmask) ->
                  let left_aliases =
                    List.sort compare
                      (List.concat_map
                         (fun (i : Fragment.input) -> i.Fragment.provides)
                         (subset_inputs inputs lmask))
                  in
                  Dp_memo.store memo keys.(mask)
                    {
                      Dp_memo.card = card_arr.(mask);
                      cost = best_cost.(mask);
                      method_;
                      left_aliases;
                    }
              | None -> ())
          levels.(level)
      done;
      Span.instant spans Span.Dp_memo
        ~args:
          [
            ("hits", string_of_int (Dp_memo.hits memo - memo_h0));
            ("misses", string_of_int (Dp_memo.misses memo - memo_m0));
            ("size", string_of_int (Dp_memo.size memo));
          ]
        "dp-memo");
  (* materialize the best plan bottom-up from the specs *)
  let rec build mask =
    if singleton mask then
      scan_node inputs.(bit_index mask) ~est_rows:(card mask)
    else
      match best_spec.(mask) with
      | None -> invalid_arg "Optimizer.dp_plan: no plan found"
      | Some (method_, lmask) ->
          let rmask = mask lxor lmask in
          let left = build lmask and right = build rmask in
          let preds = cross lmask rmask in
          let index =
            match method_ with
            | Physical.Index_nl -> (
                let inner = inputs.(bit_index rmask) in
                match usable_index catalog inner preds with
                | Some (ix, outer_key, inner_key, _) -> Some (ix, outer_key, inner_key)
                | None -> invalid_arg "Optimizer.dp_plan: index vanished")
            | _ -> None
          in
          Physical.join ~method_ ?index () ~left ~right ~preds ~est_rows:(card mask)
            ~est_cost:best_cost.(mask)
  in
  build full

(* --- greedy fallback for very wide fragments -------------------------- *)

let greedy_plan ~allowed catalog (est : Estimator.t) (frag : Fragment.t) =
  let planned =
    ref
      (List.map
         (fun i ->
           let rows = estimate_subset est frag [ i ] in
           (([ i ] : Fragment.input list), scan_node i ~est_rows:rows))
         frag.inputs)
  in
  while List.length !planned > 1 do
    let best = ref None in
    List.iteri
      (fun ai (a_inputs, ap) ->
        List.iteri
          (fun bi (b_inputs, bp) ->
            if ai < bi then begin
              let merged = a_inputs @ b_inputs in
              let sub = Fragment.restrict frag merged in
              let connecting =
                List.filter
                  (fun p ->
                    let rels = Expr.rels_of_pred p in
                    List.exists
                      (fun r ->
                        List.exists (fun i -> List.mem r i.Fragment.provides) a_inputs)
                      rels
                    && List.exists
                         (fun r ->
                           List.exists (fun i -> List.mem r i.Fragment.provides) b_inputs)
                         rels)
                  sub.Fragment.preds
              in
              if connecting <> [] || List.length !planned = 2 then begin
                let out_rows = estimate_subset est frag merged in
                match best_of (join_candidates ~allowed catalog ap bp connecting ~out_rows) with
                | Some cand -> (
                    match !best with
                    | Some (_, _, b) when b.Physical.est_cost <= cand.Physical.est_cost -> ()
                    | _ -> best := Some (ai, bi, cand))
                | None -> ()
              end
            end)
          !planned)
      !planned;
    match !best with
    | None ->
        (* fully disconnected step: merge the two smallest with a cartesian *)
        let sorted =
          List.sort
            (fun (_, a) (_, b) -> compare a.Physical.est_rows b.Physical.est_rows)
            !planned
        in
        let (ia, pa), (ib, pb) = (List.nth sorted 0, List.nth sorted 1) in
        let merged = ia @ ib in
        let out_rows = estimate_subset est frag merged in
        let cand = Option.get (best_of (join_candidates ~allowed catalog pa pb [] ~out_rows)) in
        planned :=
          (merged, cand)
          :: List.filter (fun (ins, _) -> ins != ia && ins != ib) !planned
    | Some (ai, bi, cand) ->
        let a_inputs = fst (List.nth !planned ai) in
        let b_inputs = fst (List.nth !planned bi) in
        planned :=
          (a_inputs @ b_inputs, cand)
          :: List.filteri (fun i _ -> i <> ai && i <> bi) !planned
  done;
  snd (List.hd !planned)

let optimize ?(allowed = [ Physical.Hash; Physical.Index_nl; Physical.Nl ]) ?spans
    ?memo catalog est frag =
  if frag.Fragment.inputs = [] then invalid_arg "Optimizer.optimize: empty fragment";
  let n = List.length frag.Fragment.inputs in
  let plan =
    if n <= dp_limit then
      Span.span spans Span.Optimize
        ~args:[ ("inputs", string_of_int n) ]
        (Printf.sprintf "dp n=%d" n)
        (fun () -> dp_plan ?spans ?memo ~allowed catalog est frag)
    else
      Span.span spans Span.Optimize
        ~args:[ ("inputs", string_of_int n) ]
        (Printf.sprintf "greedy n=%d" n)
        (fun () -> greedy_plan ~allowed catalog est frag)
  in
  { plan; est_rows = plan.Physical.est_rows; est_cost = plan.Physical.est_cost }

(* --- re-costing a fixed plan under another estimator ------------------ *)

let cost_plan catalog est (frag : Fragment.t) plan =
  ignore catalog;
  let rec go (p : Physical.t) =
    match p.Physical.node with
    | Physical.Scan input ->
        let raw = float_of_int (Table_stats.n_rows input.Fragment.stats) in
        let rows = estimate_subset est frag [ input ] in
        let cost =
          Cost_model.scan ~rows:raw ~n_filters:(List.length input.Fragment.filters)
        in
        (rows, cost)
    | Physical.Join j -> (
        let lrows, lcost = go j.Physical.left in
        let rrows, rcost = go j.Physical.right in
        let out_rows =
          estimate_subset est frag
            (Physical.leaves j.Physical.left @ Physical.leaves j.Physical.right)
        in
        match j.Physical.method_ with
        | Physical.Hash ->
            ( out_rows,
              lcost +. rcost
              +. Cost_model.hash_join ~build_rows:lrows ~probe_rows:rrows ~out_rows )
        | Physical.Index_nl ->
            let inner_input =
              match j.Physical.right.Physical.node with
              | Physical.Scan i -> i
              | _ -> invalid_arg "cost_plan: index NL inner is not a scan"
            in
            let _, _, inner_key =
              match j.Physical.index with
              | Some (ix, ok, ik) -> (ix, ok, ik)
              | None -> invalid_arg "cost_plan: index NL without index"
            in
            let matches = index_matches inner_input inner_key ~outer_rows:lrows in
            let inner_raw = float_of_int (Table_stats.n_rows inner_input.Fragment.stats) in
            ( out_rows,
              lcost
              +. Cost_model.index_nl_join ~outer_rows:lrows ~inner_rows:inner_raw
                   ~matches ~out_rows )
        | Physical.Nl ->
            ( out_rows,
              lcost +. rcost
              +. Cost_model.nl_join ~outer_rows:lrows ~inner_rows:rrows ~out_rows ))
  in
  snd (go plan)
