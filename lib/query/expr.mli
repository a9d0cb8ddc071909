(** Scalar expressions and predicates.

    A query's WHERE clause is kept as a *set* of conjunct predicates
    (conjunctive normal form at the top level); each conjunct is either a
    single-relation filter or a join predicate between two relations. This
    set form is what the Query Splitting Algorithm divides (§3.2). *)

module Value = Qs_storage.Value
module Schema = Qs_storage.Schema

type colref = { rel : string; name : string }
(** Column reference, qualified by the relation *alias* it comes from. *)

type arith = Add | Sub | Mul | Div

type scalar =
  | Col of colref
  | Const of Value.t
  | Arith of arith * scalar * scalar

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type pred =
  | Cmp of cmp * scalar * scalar
  | Between of scalar * Value.t * Value.t  (* inclusive *)
  | In_list of scalar * Value.t list
  | Like of scalar * string  (* SQL LIKE: '%' = any run, '_' = any char *)
  | Is_null of scalar
  | Not_null of scalar
  | Or of pred list  (* disjunction of conjunct-free predicates *)

val col : string -> string -> scalar
(** [col rel name] is a column reference. *)

val vint : int -> scalar
val vstr : string -> scalar
val vfloat : float -> scalar

val eq : scalar -> scalar -> pred
(** Equality conjunct; [eq (col a x) (col b y)] is a join predicate when
    [a <> b]. *)

val rels_of_scalar : scalar -> string list

val cols_of_scalar : scalar -> colref list
(** Column references of the scalar, left to right, repeats kept. *)

val rels_of_pred : pred -> string list
(** Distinct relation aliases referenced, in first-appearance order. *)

val cols_of_pred : pred -> colref list
(** Distinct column references used by the predicate. *)

val join_sides : pred -> (colref * colref) option
(** [Some (a, b)] when the predicate is a pure column-to-column equality
    between two different relations — the join predicates the join graph is
    built from. *)

val is_single_rel : pred -> bool
(** True when the predicate touches at most one relation (a filter). *)

val rename_rels : (string -> string) -> pred -> pred
(** Rewrites every column qualifier through the mapping (identity for
    unmapped aliases); used when materialized temps adopt base aliases. *)

val eval_scalar : Schema.t -> Value.t array -> scalar -> Value.t
(** Raises [Invalid_argument] if a referenced column is absent from the
    schema. Arithmetic on NULL yields NULL. *)

val eval : Schema.t -> Value.t array -> pred -> bool
(** SQL-style evaluation: any comparison against NULL is not-true. *)

val compile : Schema.t -> pred -> Value.t array -> bool
(** [compile schema p] is [Expr.eval schema] specialised to [p]: every
    column position is resolved once, here, instead of one
    [Schema.find_exn] scan per row, and the returned function builds no
    closure per row. Its result on every row is [eval]'s, including the
    exception: a column absent from [schema] raises the same
    [Invalid_argument] when a row reaches it, not at compile time.
    [eval] stays as the reference the executor's compiled filters are
    tested against. *)

val compile_scalar : Schema.t -> scalar -> Value.t array -> Value.t
(** {!compile} for one scalar: [eval_scalar schema] specialised to it. *)

val compile_all : Schema.t -> pred list -> Value.t array -> bool
(** The conjunction of {!compile}d predicates, tested in list order and
    stopping at the first that fails ([List.for_all] over [eval]). The
    empty list holds on every row. *)

val like_match : pattern:string -> string -> bool
(** The LIKE matcher, exposed for testing. *)

val compare_pred : pred -> pred -> int
(** Structural order with symmetric equality conjuncts normalized, so that
    [a.x = b.y] and [b.y = a.x] compare equal. *)

val equal_pred : pred -> pred -> bool

val to_string : pred -> string
(** SQL text of the predicate. Constants print as SQL literals — string
    constants, [BETWEEN] / [IN] bounds and [LIKE] patterns single-quoted
    with [''] escaping, floats with enough digits to read back exactly —
    so the text parses back with [Sql.parse], [x = '1'] never prints like
    [x = 1] and two distinct float constants never share their text.
    Fragment keys, filter-cache keys and plan-cache keys are built from
    it. *)

val pp : Format.formatter -> pred -> unit
val scalar_to_string : scalar -> string
