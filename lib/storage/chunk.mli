(** One table chunk, row-major or column-major.

    Which one a table holds is the store's choice: resident tables built
    from rows keep [Rows], chunk-file frames always fault back in as
    [Cols] (see {!Table}), and executor operators (joins, filtered
    scans) emit [Cols] directly, joins as boxed columns
    ({!Columnar.of_builders}).

    The constructors are exported for lib/storage internals (spill
    serialization, table stores) but lint-banned outside it; other code
    uses [rows] for the row view or [columnar] to detect and exploit the
    column-major form. *)

type t =
  | Rows of Value.t array array
  | Cols of Columnar.t

val of_rows : Value.t array array -> t
val of_columnar : Columnar.t -> t

val n_rows : t -> int

val rows : t -> Value.t array array
(** Row view. Decodes a columnar chunk (O(rows × cols) boxing) — hot
    paths should branch on [columnar] instead of calling this per row. *)

val columnar : t -> Columnar.t option
(** [Some c] iff the chunk is column-major. *)

val row : t -> int -> Value.t array

val byte_size : t -> int
(** Logical size ([Value.byte_size] sum), layout-invariant. *)
