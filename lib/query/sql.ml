module Value = Qs_storage.Value

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

type token =
  | Ident of string
  | Int_lit of int
  | Float_lit of float
  | Str_lit of string
  | Comma
  | Dot
  | Star
  | Lparen
  | Rparen
  | Semicolon
  | Op of string  (* = <> != < <= > >= *)
  | Eof

let keyword s =
  match String.lowercase_ascii s with
  | ("select" | "from" | "where" | "as" | "and" | "or" | "between" | "in" | "like"
    | "not" | "is" | "null") as k ->
      Some k
  | _ -> None

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let lex input =
  let n = String.length input in
  let tokens = ref [] in
  let emit t = tokens := t :: !tokens in
  let i = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !i)) in
  while !i < n do
    let c = input.[!i] in
    if c = ' ' || c = '\n' || c = '\t' || c = '\r' then incr i
    else if c = ',' then (emit Comma; incr i)
    else if c = '.' && not (!i + 1 < n && input.[!i + 1] >= '0' && input.[!i + 1] <= '9')
    then (emit Dot; incr i)
    else if c = '*' then (emit Star; incr i)
    else if c = '(' then (emit Lparen; incr i)
    else if c = ')' then (emit Rparen; incr i)
    else if c = ';' then (emit Semicolon; incr i)
    else if c = '\'' then begin
      (* single-quoted string; '' escapes a quote *)
      let buf = Buffer.create 16 in
      incr i;
      let closed = ref false in
      while (not !closed) && !i < n do
        if input.[!i] = '\'' then
          if !i + 1 < n && input.[!i + 1] = '\'' then (Buffer.add_char buf '\''; i := !i + 2)
          else (closed := true; incr i)
        else (Buffer.add_char buf input.[!i]; incr i)
      done;
      if not !closed then fail "unterminated string literal";
      emit (Str_lit (Buffer.contents buf))
    end
    else if c = '<' || c = '>' || c = '=' || c = '!' then begin
      let two =
        if !i + 1 < n then String.sub input !i 2 else String.make 1 c
      in
      match two with
      | "<=" | ">=" | "<>" | "!=" ->
          emit (Op two);
          i := !i + 2
      | _ ->
          if c = '!' then fail "unexpected '!'";
          emit (Op (String.make 1 c));
          incr i
    end
    else if (c >= '0' && c <= '9') || (c = '-' && !i + 1 < n && input.[!i + 1] >= '0' && input.[!i + 1] <= '9')
    then begin
      let start = !i in
      if c = '-' then incr i;
      let saw_dot = ref false in
      while
        !i < n
        && ((input.[!i] >= '0' && input.[!i] <= '9')
           || (input.[!i] = '.' && not !saw_dot))
      do
        if input.[!i] = '.' then saw_dot := true;
        incr i
      done;
      let is_digit j = j < n && input.[j] >= '0' && input.[j] <= '9' in
      (* exponent, as in 1e-07 *)
      let saw_exp =
        !i < n
        && (input.[!i] = 'e' || input.[!i] = 'E')
        && (is_digit (!i + 1)
           || (!i + 1 < n && (input.[!i + 1] = '-' || input.[!i + 1] = '+')
              && is_digit (!i + 2)))
      in
      if saw_exp then begin
        i := !i + 2;
        while is_digit !i do
          incr i
        done
      end;
      let text = String.sub input start (!i - start) in
      if !saw_dot || saw_exp then emit (Float_lit (float_of_string text))
      else emit (Int_lit (int_of_string text))
    end
    else if is_ident_char c then begin
      let start = !i in
      while !i < n && is_ident_char input.[!i] do
        incr i
      done;
      emit (Ident (String.sub input start (!i - start)))
    end
    else fail (Printf.sprintf "unexpected character %C" c)
  done;
  emit Eof;
  List.rev !tokens

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

type state = { mutable toks : token list }

let token_name = function
  | Ident s -> Printf.sprintf "identifier %S" s
  | Int_lit i -> string_of_int i
  | Float_lit f -> string_of_float f
  | Str_lit s -> Printf.sprintf "'%s'" s
  | Comma -> "','"
  | Dot -> "'.'"
  | Star -> "'*'"
  | Lparen -> "'('"
  | Rparen -> "')'"
  | Semicolon -> "';'"
  | Op o -> Printf.sprintf "operator %s" o
  | Eof -> "end of input"

let peek st = match st.toks with t :: _ -> t | [] -> Eof

let advance st = match st.toks with _ :: rest -> st.toks <- rest | [] -> ()

let expect st t =
  if peek st = t then advance st
  else raise (Parse_error (Printf.sprintf "expected %s, found %s" (token_name t) (token_name (peek st))))

(* keyword test on the upcoming identifier *)
let at_kw st k =
  match peek st with Ident s -> keyword s = Some k | _ -> false

let eat_kw st k =
  if at_kw st k then advance st
  else raise (Parse_error (Printf.sprintf "expected %s, found %s" (String.uppercase_ascii k) (token_name (peek st))))

let ident st =
  match peek st with
  | Ident s when keyword s = None ->
      advance st;
      s
  | t -> raise (Parse_error ("expected identifier, found " ^ token_name t))

let colref st =
  let rel = ident st in
  expect st Dot;
  let name = ident st in
  { Expr.rel; name }

let literal st =
  match peek st with
  | Int_lit i -> advance st; Value.Int i
  | Float_lit f -> advance st; Value.Float f
  | Str_lit s -> advance st; Value.Str s
  | Ident s when keyword s = Some "null" -> advance st; Value.Null
  | t -> raise (Parse_error ("expected literal, found " ^ token_name t))

let cmp_of = function
  | "=" -> Expr.Eq
  | "<>" | "!=" -> Expr.Ne
  | "<" -> Expr.Lt
  | "<=" -> Expr.Le
  | ">" -> Expr.Gt
  | ">=" -> Expr.Ge
  | o -> raise (Parse_error ("unknown operator " ^ o))

(* one simple predicate: col OP (col|lit) | col BETWEEN l AND l
   | col [NOT] LIKE 'pat' | col [NOT] IN (l, …) | col IS [NOT] NULL *)
let rec simple_pred st =
  let c = colref st in
  let lhs = Expr.Col c in
  match peek st with
  | Op o ->
      advance st;
      let op = cmp_of o in
      let rhs =
        match peek st with
        | Ident _ -> Expr.Col (colref st)
        | _ -> Expr.Const (literal st)
      in
      Expr.Cmp (op, lhs, rhs)
  | Ident s when keyword s = Some "between" ->
      advance st;
      let lo = literal st in
      eat_kw st "and";
      let hi = literal st in
      Expr.Between (lhs, lo, hi)
  | Ident s when keyword s = Some "like" ->
      advance st;
      (match literal st with
      | Value.Str pat -> Expr.Like (lhs, pat)
      | _ -> raise (Parse_error "LIKE expects a string literal"))
  | Ident s when keyword s = Some "not" ->
      advance st;
      if at_kw st "like" then begin
        advance st;
        match literal st with
        | Value.Str pat ->
            (* NOT LIKE is expressed as an OR-free negation we do not
               support in pred form; reject with a clear message *)
            raise (Parse_error ("NOT LIKE '" ^ pat ^ "' is not supported"))
        | _ -> raise (Parse_error "LIKE expects a string literal")
      end
      else if at_kw st "in" then in_list st lhs
      else raise (Parse_error "expected LIKE or IN after NOT")
  | Ident s when keyword s = Some "in" -> in_list st lhs
  | Ident s when keyword s = Some "is" ->
      advance st;
      if at_kw st "not" then begin
        advance st;
        eat_kw st "null";
        Expr.Not_null lhs
      end
      else begin
        eat_kw st "null";
        Expr.Is_null lhs
      end
  | t -> raise (Parse_error ("expected predicate operator, found " ^ token_name t))

and in_list st lhs =
  eat_kw st "in";
  expect st Lparen;
  let rec values acc =
    let v = literal st in
    if peek st = Comma then begin
      advance st;
      values (v :: acc)
    end
    else List.rev (v :: acc)
  in
  let vs = values [] in
  expect st Rparen;
  Expr.In_list (lhs, vs)

(* a conjunct: simple predicate, or a parenthesised OR-group of them *)
let conjunct st =
  if peek st = Lparen then begin
    advance st;
    let rec ors acc =
      let p = simple_pred st in
      if at_kw st "or" then begin
        advance st;
        ors (p :: acc)
      end
      else List.rev (p :: acc)
    in
    let ps = ors [] in
    expect st Rparen;
    match ps with [ p ] -> p | ps -> Expr.Or ps
  end
  else simple_pred st

let parse ?(name = "sql") input =
  let st = { toks = lex input } in
  eat_kw st "select";
  let output =
    if peek st = Star then begin
      advance st;
      []
    end
    else begin
      let rec cols acc =
        let c = colref st in
        if peek st = Comma then begin
          advance st;
          cols (c :: acc)
        end
        else List.rev (c :: acc)
      in
      cols []
    end
  in
  eat_kw st "from";
  let rec rels acc =
    let table = ident st in
    let alias =
      if at_kw st "as" then begin
        advance st;
        ident st
      end
      else
        match peek st with
        | Ident s when keyword s = None ->
            advance st;
            s
        | _ -> table
    in
    let acc = { Query.alias; table } :: acc in
    if peek st = Comma then begin
      advance st;
      rels acc
    end
    else List.rev acc
  in
  let rels = rels [] in
  let preds =
    if at_kw st "where" then begin
      advance st;
      let rec conj acc =
        let p = conjunct st in
        if at_kw st "and" then begin
          advance st;
          conj (p :: acc)
        end
        else List.rev (p :: acc)
      in
      conj []
    end
    else []
  in
  if peek st = Semicolon then advance st;
  (match peek st with
  | Eof -> ()
  | t -> raise (Parse_error ("unexpected trailing " ^ token_name t)));
  Query.make ~name ~output rels preds

let parse_result ?name input =
  match parse ?name input with
  | q -> Ok q
  | exception Parse_error msg -> Error msg
  | exception Invalid_argument msg -> Error msg
