module Value = Qs_storage.Value
module Schema = Qs_storage.Schema

type colref = { rel : string; name : string }

type arith = Add | Sub | Mul | Div

type scalar =
  | Col of colref
  | Const of Value.t
  | Arith of arith * scalar * scalar

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type pred =
  | Cmp of cmp * scalar * scalar
  | Between of scalar * Value.t * Value.t
  | In_list of scalar * Value.t list
  | Like of scalar * string
  | Is_null of scalar
  | Not_null of scalar
  | Or of pred list

let col rel name = Col { rel; name }
let vint i = Const (Value.Int i)
let vstr s = Const (Value.Str s)
let vfloat f = Const (Value.Float f)
let eq a b = Cmp (Eq, a, b)

let rec scalars_of_pred = function
  | Cmp (_, a, b) -> [ a; b ]
  | Between (s, _, _) | In_list (s, _) | Like (s, _) | Is_null s | Not_null s -> [ s ]
  | Or ps -> List.concat_map scalars_of_pred ps

let rec cols_of_scalar = function
  | Col c -> [ c ]
  | Const _ -> []
  | Arith (_, a, b) -> cols_of_scalar a @ cols_of_scalar b

let dedup xs =
  List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs
  |> List.rev

let rels_of_scalar s = dedup (List.map (fun c -> c.rel) (cols_of_scalar s))

let cols_of_pred p = dedup (List.concat_map cols_of_scalar (scalars_of_pred p))

let rels_of_pred p = dedup (List.map (fun c -> c.rel) (cols_of_pred p))

let join_sides = function
  | Cmp (Eq, Col a, Col b) when a.rel <> b.rel -> Some (a, b)
  | _ -> None

let is_single_rel p = List.length (rels_of_pred p) <= 1

let rec rename_scalar f = function
  | Col c -> Col { c with rel = f c.rel }
  | Const _ as s -> s
  | Arith (op, a, b) -> Arith (op, rename_scalar f a, rename_scalar f b)

let rec rename_rels f = function
  | Cmp (op, a, b) -> Cmp (op, rename_scalar f a, rename_scalar f b)
  | Between (s, lo, hi) -> Between (rename_scalar f s, lo, hi)
  | In_list (s, vs) -> In_list (rename_scalar f s, vs)
  | Like (s, pat) -> Like (rename_scalar f s, pat)
  | Is_null s -> Is_null (rename_scalar f s)
  | Not_null s -> Not_null (rename_scalar f s)
  | Or ps -> Or (List.map (rename_rels f) ps)

let arith op va vb =
  if Value.is_null va || Value.is_null vb then Value.Null
  else
    match (va, vb) with
    | Value.Int x, Value.Int y -> (
        match op with
        | Add -> Value.Int (x + y)
        | Sub -> Value.Int (x - y)
        | Mul -> Value.Int (x * y)
        | Div -> if y = 0 then Value.Null else Value.Int (x / y))
    | _ ->
        let x = Value.as_float va and y = Value.as_float vb in
        let r =
          match op with
          | Add -> x +. y
          | Sub -> x -. y
          | Mul -> x *. y
          | Div -> if y = 0.0 then Float.nan else x /. y
        in
        if Float.is_nan r then Value.Null else Value.Float r

let rec eval_scalar schema row = function
  | Col { rel; name } -> row.(Schema.find_exn schema ~rel ~name)
  | Const v -> v
  | Arith (op, a, b) ->
      let va = eval_scalar schema row a and vb = eval_scalar schema row b in
      arith op va vb

(* LIKE: '%' matches any run (incl. empty), '_' any single char. Recursive
   descent with memo-free backtracking; patterns in the workloads are tiny. *)
let like_match ~pattern s =
  let np = String.length pattern and ns = String.length s in
  let rec go pi si =
    if pi = np then si = ns
    else
      match pattern.[pi] with
      | '%' ->
          (* collapse consecutive %; try every suffix *)
          if pi + 1 = np then true
          else
            let rec try_from k = k <= ns && (go (pi + 1) k || try_from (k + 1)) in
            try_from si
      | '_' -> si < ns && go (pi + 1) (si + 1)
      | c -> si < ns && s.[si] = c && go (pi + 1) (si + 1)
  in
  go 0 0

let cmp_holds op a b =
  if Value.is_null a || Value.is_null b then false
  else
    let c = Value.compare a b in
    match op with
    | Eq -> c = 0
    | Ne -> c <> 0
    | Lt -> c < 0
    | Le -> c <= 0
    | Gt -> c > 0
    | Ge -> c >= 0

let rec eval schema row = function
  | Cmp (op, a, b) -> cmp_holds op (eval_scalar schema row a) (eval_scalar schema row b)
  | Between (s, lo, hi) ->
      let v = eval_scalar schema row s in
      cmp_holds Ge v lo && cmp_holds Le v hi
  | In_list (s, vs) ->
      let v = eval_scalar schema row s in
      (not (Value.is_null v)) && List.exists (Value.equal v) vs
  | Like (s, pat) -> (
      match eval_scalar schema row s with
      | Value.Str str -> like_match ~pattern:pat str
      | _ -> false)
  | Is_null s -> Value.is_null (eval_scalar schema row s)
  | Not_null s -> not (Value.is_null (eval_scalar schema row s))
  | Or ps -> List.exists (eval schema row) ps

(* Compilation: the same semantics as [eval], with every column position
   resolved once. Each arm mirrors its [eval] arm expression for
   expression, so operands are evaluated in the same order and the same
   exception escapes first; a column the schema lacks raises from
   [Schema.find_exn] when a row reaches it, exactly as [eval] does. No
   closure is built per row: lists are walked by the recursive helpers
   below instead of [List.exists] over a fresh closure. *)
let rec compile_scalar schema = function
  | Col { rel; name } -> (
      match Schema.find schema ~rel ~name with
      | Some p -> fun row -> row.(p)
      | None -> fun row -> row.(Schema.find_exn schema ~rel ~name))
  | Const v -> fun _ -> v
  | Arith (op, a, b) ->
      let fa = compile_scalar schema a and fb = compile_scalar schema b in
      fun row ->
        let va = fa row and vb = fb row in
        arith op va vb

let rec mem_value v = function
  | [] -> false
  | x :: rest -> Value.equal v x || mem_value v rest

let rec any_holds fs row =
  match fs with [] -> false | f :: rest -> f row || any_holds rest row

let rec all_hold fs row =
  match fs with [] -> true | f :: rest -> f row && all_hold rest row

let rec compile schema = function
  | Cmp (op, a, b) ->
      let fa = compile_scalar schema a and fb = compile_scalar schema b in
      fun row -> cmp_holds op (fa row) (fb row)
  | Between (s, lo, hi) ->
      let f = compile_scalar schema s in
      fun row ->
        let v = f row in
        cmp_holds Ge v lo && cmp_holds Le v hi
  | In_list (s, vs) ->
      let f = compile_scalar schema s in
      fun row ->
        let v = f row in
        (not (Value.is_null v)) && mem_value v vs
  | Like (s, pat) -> (
      let f = compile_scalar schema s in
      fun row ->
        match f row with
        | Value.Str str -> like_match ~pattern:pat str
        | _ -> false)
  | Is_null s ->
      let f = compile_scalar schema s in
      fun row -> Value.is_null (f row)
  | Not_null s ->
      let f = compile_scalar schema s in
      fun row -> not (Value.is_null (f row))
  | Or ps ->
      let fs = List.map (compile schema) ps in
      fun row -> any_holds fs row

let compile_all schema = function
  | [] -> fun _ -> true
  | [ p ] -> compile schema p
  | ps ->
      let fs = List.map (compile schema) ps in
      fun row -> all_hold fs row

(* Normalize symmetric equality so pred-set comparisons are order-free. *)
let normalize = function
  | Cmp (Eq, a, b) when compare a b > 0 -> Cmp (Eq, b, a)
  | Cmp (Ne, a, b) when compare a b > 0 -> Cmp (Ne, b, a)
  | p -> p

let rec compare_pred a b =
  match (a, b) with
  | Or xs, Or ys -> List.compare compare_pred (List.map normalize xs) (List.map normalize ys)
  | _ -> compare (normalize a) (normalize b)

let equal_pred a b = compare_pred a b = 0

let arith_symbol = function Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"

(* Constants print as SQL literals: a string is single-quoted with
   embedded quotes doubled, so a printed predicate parses back and
   [x = '1'] never prints like [x = 1]. *)
let quote s = "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"

(* A float prints with the fewest digits (15 to 17) that read back to
   the same value, so two constants never share their text; an integral
   one keeps a [.0] so it reads back as a float. *)
let float_literal f =
  let rec go p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || float_of_string s = f then s else go (p + 1)
  in
  let s = go 15 in
  if Float.is_integer f && not (String.contains s 'e') then s ^ ".0" else s

let literal = function
  | Value.Str s -> quote s
  | Value.Float f -> float_literal f
  | v -> Value.to_string v

let rec scalar_to_string = function
  | Col { rel; name } -> rel ^ "." ^ name
  | Const v -> literal v
  | Arith (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (scalar_to_string a) (arith_symbol op)
        (scalar_to_string b)

let cmp_symbol = function
  | Eq -> "=" | Ne -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let rec to_string = function
  | Cmp (op, a, b) ->
      Printf.sprintf "%s %s %s" (scalar_to_string a) (cmp_symbol op) (scalar_to_string b)
  | Between (s, lo, hi) ->
      Printf.sprintf "%s BETWEEN %s AND %s" (scalar_to_string s) (literal lo)
        (literal hi)
  | In_list (s, vs) ->
      Printf.sprintf "%s IN (%s)" (scalar_to_string s)
        (String.concat ", " (List.map literal vs))
  | Like (s, pat) -> Printf.sprintf "%s LIKE %s" (scalar_to_string s) (quote pat)
  | Is_null s -> scalar_to_string s ^ " IS NULL"
  | Not_null s -> scalar_to_string s ^ " IS NOT NULL"
  | Or ps -> "(" ^ String.concat " OR " (List.map to_string ps) ^ ")"

let pp fmt p = Format.pp_print_string fmt (to_string p)
