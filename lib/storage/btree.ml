(* A classic B+Tree with node fan-out [order]. Nodes hold their keys in
   sorted dynamic arrays (copied on insert); splits propagate upward and the
   root splits grow the tree. Leaves are chained for range scans. *)

let order = 32 (* maximum number of keys in a node *)

type node = Leaf of leaf | Internal of internal

and leaf = {
  mutable lkeys : Value.t array;
  mutable lvals : int list array; (* row-id postings, most recent first *)
  mutable next : leaf option;
}

and internal = {
  mutable ikeys : Value.t array; (* separators: child i holds keys < ikeys.(i) *)
  mutable children : node array;
}

type t = {
  mutable root : node;
  mutable n_keys : int;
  mutable n_entries : int;
}

let create () =
  { root = Leaf { lkeys = [||]; lvals = [||]; next = None }; n_keys = 0; n_entries = 0 }

(* Position of the first element >= key (insertion point). *)
let lower_bound keys key =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Value.compare keys.(mid) key < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* Position of the first element > key: the child to descend into. *)
let upper_bound keys key =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Value.compare keys.(mid) key <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let array_insert arr pos x =
  let n = Array.length arr in
  let out = Array.make (n + 1) x in
  Array.blit arr 0 out 0 pos;
  Array.blit arr pos out (pos + 1) (n - pos);
  out

(* Returns [Some (separator, right_sibling)] when the node split. *)
let rec insert_node t node key row =
  match node with
  | Leaf l -> (
      let pos = lower_bound l.lkeys key in
      if pos < Array.length l.lkeys && Value.equal l.lkeys.(pos) key then (
        l.lvals.(pos) <- row :: l.lvals.(pos);
        t.n_entries <- t.n_entries + 1;
        None)
      else (
        l.lkeys <- array_insert l.lkeys pos key;
        l.lvals <- array_insert l.lvals pos [ row ];
        t.n_keys <- t.n_keys + 1;
        t.n_entries <- t.n_entries + 1;
        if Array.length l.lkeys <= order then None
        else
          let mid = Array.length l.lkeys / 2 in
          let rkeys = Array.sub l.lkeys mid (Array.length l.lkeys - mid) in
          let rvals = Array.sub l.lvals mid (Array.length l.lvals - mid) in
          let right = { lkeys = rkeys; lvals = rvals; next = l.next } in
          l.lkeys <- Array.sub l.lkeys 0 mid;
          l.lvals <- Array.sub l.lvals 0 mid;
          l.next <- Some right;
          Some (rkeys.(0), Leaf right)))
  | Internal n -> (
      let child_idx = upper_bound n.ikeys key in
      match insert_node t n.children.(child_idx) key row with
      | None -> None
      | Some (sep, right) ->
          n.ikeys <- array_insert n.ikeys child_idx sep;
          n.children <- array_insert n.children (child_idx + 1) right;
          if Array.length n.ikeys <= order then None
          else
            (* Push up the middle separator; it does not stay in either half. *)
            let mid = Array.length n.ikeys / 2 in
            let up = n.ikeys.(mid) in
            let rkeys = Array.sub n.ikeys (mid + 1) (Array.length n.ikeys - mid - 1) in
            let rchildren =
              Array.sub n.children (mid + 1) (Array.length n.children - mid - 1)
            in
            let right_node = { ikeys = rkeys; children = rchildren } in
            n.ikeys <- Array.sub n.ikeys 0 mid;
            n.children <- Array.sub n.children 0 (mid + 1);
            Some (up, Internal right_node))

let insert t key row =
  if not (Value.is_null key) then
    match insert_node t t.root key row with
    | None -> ()
    | Some (sep, right) ->
        t.root <- Internal { ikeys = [| sep |]; children = [| t.root; right |] }

let array_remove arr pos =
  let n = Array.length arr in
  Array.append (Array.sub arr 0 pos) (Array.sub arr (pos + 1) (n - pos - 1))

let min_keys = order / 2

(* --- deletion with rebalancing ------------------------------------- *)

let leaf_underflow l = Array.length l.lkeys < min_keys

let internal_underflow n = Array.length n.ikeys < min_keys

(* Fix the child at [idx] of internal node [n] after it underflowed:
   borrow one entry from a sibling with spare capacity, or merge with a
   sibling. *)
let rebalance (n : internal) idx =
  let borrow_from_left li =
    match (n.children.(li), n.children.(idx)) with
    | Leaf left, Leaf right ->
        let last = Array.length left.lkeys - 1 in
        let k = left.lkeys.(last) and v = left.lvals.(last) in
        left.lkeys <- Array.sub left.lkeys 0 last;
        left.lvals <- Array.sub left.lvals 0 last;
        right.lkeys <- array_insert right.lkeys 0 k;
        right.lvals <- array_insert right.lvals 0 v;
        n.ikeys.(li) <- k
    | Internal left, Internal right ->
        let last = Array.length left.ikeys - 1 in
        (* rotate through the separator *)
        right.ikeys <- array_insert right.ikeys 0 n.ikeys.(li);
        right.children <-
          array_insert right.children 0 left.children.(Array.length left.children - 1);
        n.ikeys.(li) <- left.ikeys.(last);
        left.ikeys <- Array.sub left.ikeys 0 last;
        left.children <- Array.sub left.children 0 (Array.length left.children - 1)
    | _ -> assert false
  in
  let borrow_from_right ri =
    match (n.children.(idx), n.children.(ri)) with
    | Leaf left, Leaf right ->
        let k = right.lkeys.(0) and v = right.lvals.(0) in
        right.lkeys <- array_remove right.lkeys 0;
        right.lvals <- array_remove right.lvals 0;
        left.lkeys <- Array.append left.lkeys [| k |];
        left.lvals <- Array.append left.lvals [| v |];
        n.ikeys.(idx) <- right.lkeys.(0)
    | Internal left, Internal right ->
        left.ikeys <- Array.append left.ikeys [| n.ikeys.(idx) |];
        left.children <- Array.append left.children [| right.children.(0) |];
        n.ikeys.(idx) <- right.ikeys.(0);
        right.ikeys <- array_remove right.ikeys 0;
        right.children <- array_remove right.children 0
    | _ -> assert false
  in
  (* merge children idx and idx+1 into the left one *)
  let merge_with_right li =
    let ri = li + 1 in
    (match (n.children.(li), n.children.(ri)) with
    | Leaf left, Leaf right ->
        left.lkeys <- Array.append left.lkeys right.lkeys;
        left.lvals <- Array.append left.lvals right.lvals;
        left.next <- right.next
    | Internal left, Internal right ->
        left.ikeys <- Array.concat [ left.ikeys; [| n.ikeys.(li) |]; right.ikeys ];
        left.children <- Array.append left.children right.children
    | _ -> assert false);
    n.ikeys <- array_remove n.ikeys li;
    n.children <- array_remove n.children ri
  in
  let size child =
    match child with Leaf l -> Array.length l.lkeys | Internal i -> Array.length i.ikeys
  in
  if idx > 0 && size n.children.(idx - 1) > min_keys then borrow_from_left (idx - 1)
  else if idx < Array.length n.children - 1 && size n.children.(idx + 1) > min_keys
  then borrow_from_right (idx + 1)
  else if idx > 0 then merge_with_right (idx - 1)
  else merge_with_right idx

(* Returns (removed, underflowed). *)
let rec delete_node t node key row =
  match node with
  | Leaf l ->
      let pos = lower_bound l.lkeys key in
      if pos < Array.length l.lkeys && Value.equal l.lkeys.(pos) key then begin
        let had = List.mem row l.lvals.(pos) in
        if had then begin
          t.n_entries <- t.n_entries - 1;
          let removed_once = ref false in
          let remaining =
            List.filter
              (fun r ->
                if (not !removed_once) && r = row then begin
                  removed_once := true;
                  false
                end
                else true)
              l.lvals.(pos)
          in
          if remaining = [] then begin
            l.lkeys <- array_remove l.lkeys pos;
            l.lvals <- array_remove l.lvals pos;
            t.n_keys <- t.n_keys - 1
          end
          else l.lvals.(pos) <- remaining
        end;
        (had, leaf_underflow l)
      end
      else (false, false)
  | Internal n -> (
      let idx = upper_bound n.ikeys key in
      match delete_node t n.children.(idx) key row with
      | removed, true ->
          rebalance n idx;
          (removed, internal_underflow n)
      | removed, false -> (removed, false))

let delete t key row =
  if Value.is_null key then false
  else begin
    let removed, _ = delete_node t t.root key row in
    (* shrink the root: an internal root with a single child collapses *)
    (match t.root with
    | Internal n when Array.length n.children = 1 -> t.root <- n.children.(0)
    | _ -> ());
    removed
  end

let rec find_leaf node key =
  match node with
  | Leaf l -> l
  | Internal n -> find_leaf n.children.(upper_bound n.ikeys key) key

let find t key =
  if Value.is_null key then []
  else
    let l = find_leaf t.root key in
    let pos = lower_bound l.lkeys key in
    if pos < Array.length l.lkeys && Value.equal l.lkeys.(pos) key then l.lvals.(pos)
    else []

let mem t key = find t key <> []

let rec leftmost_leaf = function
  | Leaf l -> l
  | Internal n -> leftmost_leaf n.children.(0)

let range t ~lo ~hi f =
  let start_leaf =
    match lo with
    | None -> leftmost_leaf t.root
    | Some (k, _) -> find_leaf t.root k
  in
  let above_lo key =
    match lo with
    | None -> true
    | Some (k, incl) ->
        let c = Value.compare key k in
        if incl then c >= 0 else c > 0
  in
  let below_hi key =
    match hi with
    | None -> true
    | Some (k, incl) ->
        let c = Value.compare key k in
        if incl then c <= 0 else c < 0
  in
  let rec walk leaf =
    let stop = ref false in
    Array.iteri
      (fun i key ->
        if not !stop then
          if below_hi key then (if above_lo key then f key leaf.lvals.(i))
          else stop := true)
      leaf.lkeys;
    if not !stop then match leaf.next with Some next -> walk next | None -> ()
  in
  walk start_leaf

let n_keys t = t.n_keys

let n_entries t = t.n_entries

let rec node_height = function
  | Leaf _ -> 1
  | Internal n -> 1 + node_height n.children.(0)

let height t = node_height t.root

let keys t =
  let acc = ref [] in
  range t ~lo:None ~hi:None (fun k _ -> acc := k :: !acc);
  List.rev !acc

let check_invariants t =
  let exception Bad of string in
  let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  let check_sorted keys where =
    for i = 0 to Array.length keys - 2 do
      if Value.compare keys.(i) keys.(i + 1) >= 0 then
        fail "unsorted keys in %s at %d" where i
    done
  in
  (* Returns depth; checks occupancy and key bounds along the way. *)
  let rec check node ~is_root ~lo ~hi =
    let in_bounds k =
      (match lo with None -> true | Some l -> Value.compare k l >= 0)
      && match hi with None -> true | Some h -> Value.compare k h < 0
    in
    match node with
    | Leaf l ->
        check_sorted l.lkeys "leaf";
        if Array.length l.lkeys <> Array.length l.lvals then fail "leaf key/val skew";
        Array.iter (fun k -> if not (in_bounds k) then fail "leaf key out of bounds") l.lkeys;
        Array.iter (fun v -> if v = [] then fail "empty posting list") l.lvals;
        if (not is_root) && Array.length l.lkeys < order / 2 then
          fail "leaf underfull (%d)" (Array.length l.lkeys);
        if Array.length l.lkeys > order then fail "leaf overfull";
        1
    | Internal n ->
        check_sorted n.ikeys "internal";
        if Array.length n.children <> Array.length n.ikeys + 1 then
          fail "internal child count mismatch";
        Array.iter
          (fun k -> if not (in_bounds k) then fail "separator out of bounds")
          n.ikeys;
        if (not is_root) && Array.length n.ikeys < order / 2 then fail "internal underfull";
        if Array.length n.ikeys > order then fail "internal overfull";
        let depth = ref None in
        Array.iteri
          (fun i child ->
            let child_lo = if i = 0 then lo else Some n.ikeys.(i - 1) in
            let child_hi = if i = Array.length n.ikeys then hi else Some n.ikeys.(i) in
            let d = check child ~is_root:false ~lo:child_lo ~hi:child_hi in
            match !depth with
            | None -> depth := Some d
            | Some d0 -> if d0 <> d then fail "unbalanced children")
          n.children;
        1 + Option.get !depth
  in
  match check t.root ~is_root:true ~lo:None ~hi:None with
  | (_ : int) ->
      (* Leaf chain must enumerate exactly the sorted key set. *)
      let chained = keys t in
      let sorted = List.sort Value.compare chained in
      if chained <> sorted then Error "leaf chain out of order"
      else if List.length chained <> t.n_keys then Error "n_keys out of sync"
      else Ok ()
  | exception Bad msg -> Error msg

(* the key column is read chunk by chunk, no row decoded *)
let of_column table ~col =
  let t = create () in
  Table.iter_chunk_data
    (fun ci chunk ->
      let key = Columnar.reader chunk col ~dense:true and base = Table.chunk_offset table ci in
      for i = 0 to Columnar.n_rows chunk - 1 do
        insert t (key i) (base + i)
      done)
    table;
  t
