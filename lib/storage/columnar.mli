(** Column-major chunk representation with batch kernels.

    One chunk's worth of rows stored one array per column: unboxed
    [int array]/[float array]/[bool array] for homogeneous scalar
    columns, a first-appearance dictionary + code array for strings,
    and an exact boxed fallback for mixed-type or all-NULL columns.
    NULLs live in a per-column validity bitset (bit set = NULL;
    [None] = column has no NULLs).

    The variant constructors are exported so that [Chunk_file] can
    serialize columns, but they are {e private to lib/storage}:
    [tools/lint_unsafe.sh] bans [CInt]/[CFloat]/[CBool]/[CStr]/[CGen]
    outside it, mirroring the [.rows] rule. Everyone else uses the
    function API below. *)

type nulls = Bytes.t option
(** Validity bitset: bit [i] set = row [i] is NULL. [None] = no NULLs.
    Value slots of null rows hold a dummy (0 / 0.0 / code 0). *)

type column =
  | CInt of int array * nulls
  | CFloat of float array * nulls
  | CBool of bool array * nulls
  | CStr of { dict : string array; codes : int array; nulls : nulls }
      (** Dictionary-encoded strings: [dict] holds distinct values in
          first-appearance order, [codes.(i)] indexes it. The dict may
          retain entries unreferenced after a gather ([take]); codes
          are never re-compacted. *)
  | CGen of Value.t array
      (** Exact fallback for mixed-type or all-NULL columns. *)

type t
(** A chunk of [n_rows] rows and [n_cols] columns. A column is either
    decoded or pending: a chunk faulted in from a chunk file reads and
    decodes a column's block the first time an accessor below touches
    that column, and keeps the decoded column for every later reader.
    Every accessor is safe to call from several domains at once. *)

val n_rows : t -> int
val n_cols : t -> int

val of_rows : Value.t array array -> t
(** Columnarize a rectangular row chunk, choosing each column's
    representation from the values present. Exact: [to_rows (of_rows r)]
    reproduces [r] value-for-value (floats through their IEEE bits,
    strings byte-for-byte). An empty chunk has no rows and no
    columns (the arity is not preserved). *)

val of_pending : len:int -> (unit -> column) array -> t
(** [of_pending ~len loaders] is a chunk whose column [j] is read by
    [loaders.(j) ()] the first time it is touched ([Chunk_file] reads
    build frames this way). A loader must return a column of [len]
    rows; it runs again on the next touch if it raised, and may run
    twice when two domains touch the column first at the same moment
    (one result is kept and shared). *)

val column : t -> int -> column
(** Column [j], decoded (its block is read on the first touch). Treat as
    immutable. *)

val columns : t -> column array
(** Every column, decoded, for serialization. Treat as immutable. *)

val to_rows : t -> Value.t array array
(** Decode back to a row chunk. Dictionary entries are boxed once and
    shared across the rows referencing them. *)

val row : t -> int -> Value.t array
val get : t -> row:int -> col:int -> Value.t

val column_values : t -> int -> Value.t array
(** Batch-decode column [j] to boxed values (a fresh array). *)

val byte_size : t -> int
(** Logical size: the sum of [Value.byte_size] over all cells, identical
    to the row form's so memory accounting is layout-invariant. *)

val is_null_at : nulls -> int -> bool
val make_nulls : int -> Bytes.t
val bit_get : Bytes.t -> int -> bool
val bit_set : Bytes.t -> int -> unit

(** {2 Selection-vector kernels}

    A selection vector is a strictly increasing [int array] of surviving
    row ordinals. [~sel:None] means dense (all rows live). Kernels
    preserve ordinal order and return subsets of their input vector. *)

type op = Lt | Le | Gt | Ge | Eq | Ne

val eval_cmp :
  t -> col:int -> op -> Value.t -> sel:int array option -> int array option
(** Vectorized [col <op> const] with semantics identical to
    [Expr.cmp_holds] / [Value.compare]: NULLs never match, int/float
    compare numerically, NaN sorts below every number and equals itself,
    [-0.0 = 0.0]. Returns [Some survivors], or [None] when the
    column/constant pairing has no batch kernel (generic columns,
    cross-type comparisons other than int/float) — the caller then falls
    back to row-at-a-time evaluation. A NULL constant short-circuits to
    [Some [||]]. *)

val eval_null :
  t -> col:int -> want_null:bool -> sel:int array option -> int array option
(** Vectorized [IS NULL] ([want_null:true]) / [IS NOT NULL]. Always
    succeeds. *)

val take : t -> int array -> t
(** Gather the selected ordinals into a dense chunk. String dictionaries
    are shared, not re-compacted. *)

val project : t -> int list -> t
(** Keep only the columns at the given positions (in order). Columns are
    shared, pending ones still pending, so this is O(width) and reads
    nothing. *)
