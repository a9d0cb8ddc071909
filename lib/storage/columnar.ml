(* Column-major chunk representation: one unboxed (or dictionary-encoded)
   array per column plus a validity bitset for NULLs, built from a row
   chunk and round-tripping back to it value-for-value (floats through
   their IEEE bits, strings byte-for-byte).

   The representation is chosen per column per chunk from the values
   actually present: all-Int columns land in an [int array], all-Float
   in a [float array], strings in a first-appearance dictionary plus a
   code array, and anything mixed (or all-NULL) falls back to a boxed
   generic column — so every chunk of every table columnarizes, and the
   exactness of the fallback keeps digest parity trivial.

   The constructors below are private to lib/storage (the lint bans them
   elsewhere, like [.rows] and [Chunk_file.]); consumers go through the
   function API — batch kernels ([eval_cmp], [take], [column_values])
   for the vectorized paths, [get]/[row]/[to_rows] for row compat.

   A column may also be pending: a chunk faulted in from a chunk file
   holds, per column, the loader that reads and decodes that column's
   block, and the block is read the first time an accessor touches the
   column ([column], the one reader of a slot). The decoded column
   replaces the loader in its slot, so later readers — other morsels of
   the same frame, other serving sessions — share it. *)

(* Null bitsets: bit [i] set = row [i] is NULL; [None] = no NULLs in the
   column. Value slots of null rows hold a dummy (0 / 0.0 / code 0). *)
type nulls = Bytes.t option

type column =
  | CInt of int array * nulls
  | CFloat of float array * nulls
  | CBool of bool array * nulls
  | CStr of { dict : string array; codes : int array; nulls : nulls }
  | CGen of Value.t array  (* mixed-type or all-NULL fallback, exact *)

(* A column slot: decoded, or the loader of its block. Slots are atomic
   because frames are shared across domains: publishing a decoded column
   must publish its arrays' contents with it. *)
type slot = Ready of column | Pending of (unit -> column)

type t = { len : int; cols : slot Atomic.t array }

let n_rows t = t.len
let n_cols t = Array.length t.cols
let slot t j = t.cols.(j)
let ready c = Atomic.make (Ready c)

(* Column [j], decoded. A pending column runs its loader on the first
   touch and publishes the result; a domain that loses the race to
   publish adopts the winner's column, so every reader of the frame
   shares one decode. A loader that raises leaves the slot pending, and
   the next touch reads the block again. *)
let column t j =
  let s = slot t j in
  match Atomic.get s with
  | Ready c -> c
  | Pending load as p -> (
      let c = load () in
      if Atomic.compare_and_set s p (Ready c) then c
      else match Atomic.get s with Ready c -> c | Pending _ -> c)

(* --- bitset helpers ----------------------------------------------------- *)

let bit_get b i = Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i =
  Bytes.unsafe_set b (i lsr 3)
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get b (i lsr 3)) lor (1 lsl (i land 7))))

let is_null_at nulls i =
  match nulls with None -> false | Some b -> bit_get b i

let make_nulls n = Bytes.make ((n + 7) / 8) '\000'

(* gather a bitset through a selection vector; collapses to [None] when
   no selected row is null *)
let take_nulls nulls sel =
  match nulls with
  | None -> None
  | Some b ->
      let m = Array.length sel in
      let out = make_nulls m in
      let any = ref false in
      Array.iteri
        (fun j i ->
          if bit_get b i then begin
            bit_set out j;
            any := true
          end)
        sel;
      if !any then Some out else None

(* --- construction ------------------------------------------------------- *)

(* Column kind from a first classification pass: homogeneous non-null
   types get the unboxed forms, anything else the generic fallback. *)
type kind = KEmpty | KInt | KFloat | KBool | KStr | KGen

let kind_of rows j =
  let n = Array.length rows in
  let k = ref KEmpty in
  let i = ref 0 in
  while !i < n && !k <> KGen do
    (match rows.(!i).(j) with
    | Value.Null -> ()
    | Value.Int _ -> k := (match !k with KEmpty | KInt -> KInt | _ -> KGen)
    | Value.Float _ -> k := (match !k with KEmpty | KFloat -> KFloat | _ -> KGen)
    | Value.Bool _ -> k := (match !k with KEmpty | KBool -> KBool | _ -> KGen)
    | Value.Str _ -> k := (match !k with KEmpty | KStr -> KStr | _ -> KGen));
    incr i
  done;
  !k

let column_of_rows rows j =
  let n = Array.length rows in
  let nulls = ref None in
  let null_at i =
    let b =
      match !nulls with
      | Some b -> b
      | None ->
          let b = make_nulls n in
          nulls := Some b;
          b
    in
    bit_set b i
  in
  match kind_of rows j with
  | KEmpty | KGen -> CGen (Array.init n (fun i -> rows.(i).(j)))
  | KInt ->
      let a = Array.make n 0 in
      for i = 0 to n - 1 do
        match rows.(i).(j) with
        | Value.Int v -> a.(i) <- v
        | _ -> null_at i
      done;
      CInt (a, !nulls)
  | KFloat ->
      let a = Array.make n 0.0 in
      for i = 0 to n - 1 do
        match rows.(i).(j) with
        | Value.Float v -> a.(i) <- v
        | _ -> null_at i
      done;
      CFloat (a, !nulls)
  | KBool ->
      let a = Array.make n false in
      for i = 0 to n - 1 do
        match rows.(i).(j) with
        | Value.Bool v -> a.(i) <- v
        | _ -> null_at i
      done;
      CBool (a, !nulls)
  | KStr ->
      let codes = Array.make n 0 in
      let index : (string, int) Hashtbl.t = Hashtbl.create 64 in
      let rev = ref [] in
      let next = ref 0 in
      for i = 0 to n - 1 do
        match rows.(i).(j) with
        | Value.Str s ->
            let code =
              match Hashtbl.find_opt index s with
              | Some c -> c
              | None ->
                  let c = !next in
                  Hashtbl.replace index s c;
                  rev := s :: !rev;
                  incr next;
                  c
            in
            codes.(i) <- code
        | _ -> null_at i
      done;
      let dict = Array.of_list (List.rev !rev) in
      (* an all-null KStr cannot happen (kind_of saw a Str), so the dict
         is non-empty and code 0 is a valid dummy for null slots *)
      CStr { dict; codes; nulls = !nulls }

let of_rows rows =
  let n = Array.length rows in
  if n = 0 then { len = 0; cols = [||] }
  else
    {
      len = n;
      cols = Array.init (Array.length rows.(0)) (fun j -> ready (column_of_rows rows j));
    }

let of_pending ~len loaders =
  { len; cols = Array.map (fun load -> Atomic.make (Pending load)) loaders }

let columns t = Array.init (n_cols t) (column t)

(* --- decoding ----------------------------------------------------------- *)

let get t ~row:i ~col:j =
  match column t j with
  | CInt (a, nl) -> if is_null_at nl i then Value.Null else Value.Int a.(i)
  | CFloat (a, nl) -> if is_null_at nl i then Value.Null else Value.Float a.(i)
  | CBool (a, nl) -> if is_null_at nl i then Value.Null else Value.Bool a.(i)
  | CStr { dict; codes; nulls } ->
      if is_null_at nulls i then Value.Null else Value.Str dict.(codes.(i))
  | CGen a -> a.(i)

(* Batch-decode one column. Dictionary strings are decoded once per dict
   entry and shared across rows, so a low-cardinality column costs
   O(dict + n) boxes rather than n strings. *)
let column_values t j =
  match column t j with
  | CInt (a, nl) ->
      Array.init t.len (fun i ->
          if is_null_at nl i then Value.Null else Value.Int a.(i))
  | CFloat (a, nl) ->
      Array.init t.len (fun i ->
          if is_null_at nl i then Value.Null else Value.Float a.(i))
  | CBool (a, nl) ->
      Array.init t.len (fun i ->
          if is_null_at nl i then Value.Null else Value.Bool a.(i))
  | CStr { dict; codes; nulls } ->
      let boxed = Array.map (fun s -> Value.Str s) dict in
      Array.init t.len (fun i ->
          if is_null_at nulls i then Value.Null else boxed.(codes.(i)))
  | CGen a -> Array.copy a

let row t i = Array.init (n_cols t) (fun j -> get t ~row:i ~col:j)

let to_rows t =
  let nc = n_cols t in
  let cols = Array.init nc (column_values t) in
  Array.init t.len (fun i -> Array.init nc (fun j -> cols.(j).(i)))

(* Logical byte size, identical to the row form's [Value.byte_size] sum
   so Table 4 accounting is layout-invariant. *)
let byte_size t =
  let total = ref 0 in
  Array.iter
    (fun c ->
      match c with
      | CInt _ | CFloat _ | CBool _ -> total := !total + (8 * t.len)
      | CStr { dict; codes; nulls } ->
          for i = 0 to t.len - 1 do
            total :=
              !total
              + if is_null_at nulls i then 8 else 24 + String.length dict.(codes.(i))
          done
      | CGen a -> Array.iter (fun v -> total := !total + Value.byte_size v) a)
    (columns t);
  !total

(* --- selection-vector kernels ------------------------------------------- *)

(* A selection vector is a strictly increasing array of surviving row
   ordinals; [None] on input means "all rows" (dense). Kernels preserve
   ordinal order, so composing them never reorders rows. *)

let filter_ordinals len sel keep =
  match sel with
  | None ->
      let out = Array.make len 0 in
      let k = ref 0 in
      for i = 0 to len - 1 do
        if keep i then begin
          Array.unsafe_set out !k i;
          incr k
        end
      done;
      Array.sub out 0 !k
  | Some sel ->
      let out = Array.make (Array.length sel) 0 in
      let k = ref 0 in
      Array.iter
        (fun i ->
          if keep i then begin
            Array.unsafe_set out !k i;
            incr k
          end)
        sel;
      Array.sub out 0 !k

type op = Lt | Le | Gt | Ge | Eq | Ne

(* [holds op c] = does comparison result [c] (à la [Value.compare])
   satisfy [op]; mirrors Expr.cmp_holds exactly. *)
let holds op c =
  match op with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

(* Float tests replicating [Float.compare x k] sign semantics (NaN below
   every number, NaN = NaN, -0.0 = 0.0) with primitive comparisons. *)
let float_test op k =
  if Float.is_nan k then
    match op with
    | Eq -> fun x -> Float.is_nan x
    | Ne -> fun x -> not (Float.is_nan x)
    | Lt -> fun _ -> false
    | Le -> Float.is_nan
    | Gt -> fun x -> not (Float.is_nan x)
    | Ge -> fun _ -> true
  else
    match op with
    | Eq -> fun x -> x = k
    | Ne -> fun x -> x <> k
    | Lt -> fun x -> x < k || Float.is_nan x
    | Le -> fun x -> x <= k || Float.is_nan x
    | Gt -> fun x -> x > k
    | Ge -> fun x -> x >= k

let int_test op k =
  match op with
  | Eq -> fun (x : int) -> x = k
  | Ne -> fun x -> x <> k
  | Lt -> fun x -> x < k
  | Le -> fun x -> x <= k
  | Gt -> fun x -> x > k
  | Ge -> fun x -> x >= k

(* Vectorized [col <op> const]: [Some selvec] of the surviving ordinals
   (a subset of [sel], in order), or [None] when this column/constant
   combination has no batch kernel and the caller must fall back to
   row-at-a-time evaluation. NULLs never satisfy a comparison, matching
   Expr.cmp_holds. *)
let eval_cmp t ~col:j op const ~sel =
  if Value.is_null const then Some [||]
  else
    match (column t j, const) with
    | CInt (a, nl), Value.Int k ->
        let test = int_test op k in
        Some
          (filter_ordinals t.len sel (fun i ->
               (not (is_null_at nl i)) && test (Array.unsafe_get a i)))
    | CInt (a, nl), Value.Float k ->
        let test = float_test op k in
        Some
          (filter_ordinals t.len sel (fun i ->
               (not (is_null_at nl i))
               && test (float_of_int (Array.unsafe_get a i))))
    | CFloat (a, nl), (Value.Float _ | Value.Int _) ->
        let test = float_test op (Value.as_float const) in
        Some
          (filter_ordinals t.len sel (fun i ->
               (not (is_null_at nl i)) && test (Array.unsafe_get a i)))
    | CBool (a, nl), Value.Bool k ->
        Some
          (filter_ordinals t.len sel (fun i ->
               (not (is_null_at nl i))
               && holds op (Bool.compare (Array.unsafe_get a i) k)))
    | CStr { dict; codes; nulls }, Value.Str s ->
        (* per-dictionary-entry verdicts, then a code-array sweep: the
           string comparisons run once per distinct value, not per row *)
        let verdict = Array.map (fun d -> holds op (String.compare d s)) dict in
        Some
          (filter_ordinals t.len sel (fun i ->
               (not (is_null_at nulls i))
               && Array.unsafe_get verdict (Array.unsafe_get codes i)))
    | _ -> None

(* Vectorized IS [NOT] NULL on a plain column reference. *)
let eval_null t ~col:j ~want_null ~sel =
  match column t j with
  | CGen a ->
      Some
        (filter_ordinals t.len sel (fun i -> Value.is_null a.(i) = want_null))
  | CInt (_, nl) | CFloat (_, nl) | CBool (_, nl) | CStr { nulls = nl; _ } ->
      Some (filter_ordinals t.len sel (fun i -> is_null_at nl i = want_null))

(* --- gather / projection ------------------------------------------------ *)

let take_column c sel =
  match c with
  | CInt (a, nl) ->
      CInt (Array.map (fun i -> a.(i)) sel, take_nulls nl sel)
  | CFloat (a, nl) ->
      CFloat (Array.map (fun i -> a.(i)) sel, take_nulls nl sel)
  | CBool (a, nl) ->
      CBool (Array.map (fun i -> a.(i)) sel, take_nulls nl sel)
  | CStr { dict; codes; nulls } ->
      (* the dictionary is shared, not re-compacted: codes stay valid
         and the gather is O(|sel|) regardless of dict size *)
      CStr
        { dict; codes = Array.map (fun i -> codes.(i)) sel;
          nulls = take_nulls nulls sel }
  | CGen a -> CGen (Array.map (fun i -> a.(i)) sel)

let take t sel =
  {
    len = Array.length sel;
    cols = Array.init (n_cols t) (fun j -> ready (take_column (column t j) sel));
  }

let project t positions =
  (* slots are shared, pending ones included: projection copies and
     reads nothing, and a column decoded through either chunk is
     decoded for both *)
  { len = t.len; cols = Array.of_list (List.map (slot t) positions) }
