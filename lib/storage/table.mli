(** Tables sharded into fixed-size chunks, resident in memory or
    spilled to disk.

    Tables are immutable after construction; the engine materializes
    intermediate results as fresh tables. Rows live in chunks of at most
    [chunk_rows] rows, so very large tables are never one allocation and
    a spilled table pages one frame at a time. Row order is chunk order:
    iterating chunks in index order visits exactly the row order
    [create] was given.

    Every chunk is a {!Columnar.t}; the store picks only how its
    columns are encoded. A resident table holds boxed columns: the rows
    it is given become segments that point at the given values, and an
    operator's boxed output ({!of_chunk_data}) is kept as it is. A
    spilled table's chunks fault back in typed, one unboxed array per
    column, because the {!Chunk_file} writer encodes every frame that
    way. The engine reads chunks through {!chunk_data} /
    {!iter_chunk_data}; the row views below ({!chunk}, {!row},
    {!iter}, {!to_rows}, ...) decode, for the reference execution, the
    workload generators and tests.

    Where a table lives and how it is cut travel with the data. A base
    table is resident, cut at [?chunk_rows] (default 65,536), until
    {!spill} writes it to a {!Chunk_file} read through a
    {!Buffer_pool}; the chunk API then becomes a faulting read path:
    {!chunk} and {!row} fault frames in on demand, and
    {!iter}/{!iteri}/{!fold} pin the chunk being consumed, one frame at
    a time on the caller's domain. A table built from other tables
    ([~inputs]: join outputs, filtered scans, temps, aggregates) is
    written to the home of its first input that has one (the same
    directory and pool), or is resident when none has; it is cut at its
    first input's [chunk_rows]. So a spilled catalog runs fully out-of-core
    while a resident one in the same process stays in memory. Results
    are value-identical either way — {!digest} is invariant across
    resident and spilled execution and across chunk sizes. *)

type store
(** Where a table's chunks live: resident in memory, or in a chunk file
    read through a buffer pool. Not exposed — all access goes through
    the chunk API below, which faults as needed. *)

type t = private {
  name : string;
  schema : Schema.t;
  store : store;
      (** Read through {!chunk} / {!iter} / {!row}; direct [.rows]-style
          field access outside [lib/storage] is rejected by the lint. *)
  offsets : int array;
      (** [offsets.(i)] is the global row id of the first row of chunk
          [i]; [offsets.(n_chunks)] is the row count. Strictly
          increasing: construction drops zero-row chunks, so no offset
          can map into an empty frame. *)
  chunk_bytes : int array;  (** memoized per-chunk byte sizes, -1 = unknown *)
  chunk_rows : int;
      (** The cut of {!create}: base tables record their [?chunk_rows],
          derived tables their first input's. *)
  home : (string * Buffer_pool.t) option;
      (** Where this table is spilled, and every table built from it: a
          directory and the pool that reads it back; [None] is
          resident. Derived tables take their first input's that has
          one. An empty table keeps its home, though it has no frame to
          write and so stays {!spilled}[ = false]. *)
}

val spilled : t -> bool
(** Whether this table's chunks live on disk. *)

val spill : dir:string -> pool:Buffer_pool.t -> t -> t
(** [spill ~dir ~pool t] is [t] written to a chunk file under [dir] and
    read back through [pool]: same name, schema, rows and chunk
    boundaries. Every table later built from it is spilled the same
    way. An empty table gets the home but keeps no file. *)

val with_scratch_home :
  capacity:int -> (dir:string -> pool:Buffer_pool.t -> 'a) -> 'a
(** [with_scratch_home ~capacity f] runs [f ~dir ~pool] with a fresh
    private directory under the system temp dir and a fresh
    [capacity]-frame pool, a home for {!spill}; the directory and every
    file in it are removed on the way out, also on exception. Tables
    spilled there must not outlive [f]. *)

val set_spill : (string * Buffer_pool.t) option -> unit
(** Compatibility shim for the benchmark program, which predates
    {!spill}: [set_spill (Some (dir, pool))] spills every table built
    from no input ([~inputs:[]]) as {!spill} would. Only
    [perfbench/main.ml] may call it ([tools/check.sh] lint 10). The
    benchmark change that moves that program to {!spill} deletes it. *)

val create : ?chunk_rows:int -> inputs:t list -> name:string -> schema:Schema.t ->
  Value.t array array -> t
(** Rows must match the schema arity; they are split into chunks of
    [chunk_rows] (last chunk may be short; default: the first input's
    [chunk_rows], or 65,536 for a base table), each held as boxed
    columns over the given values ({!Columnar.of_rows_boxed}: the
    values are shared, the row arrays are not kept). [inputs] are the tables
    the rows were computed from, [[]] for a base table: the new table
    gets the home of the first one that has one (field [home]), and is
    resident when none has. The argument is required so that every
    operator says what it derives from. *)

val of_rows : ?chunk_rows:int -> name:string -> schema:Schema.t ->
  Value.t array list -> t
(** A base table ([create ~inputs:[]]) from a row list. *)

val of_chunks : inputs:t list -> name:string -> schema:Schema.t ->
  Value.t array array list -> t
(** Concatenation of pre-chunked row batches, in order. Batches may be
    ragged (per-chunk filter outputs) and interleaved with empty ones;
    empty batches are dropped, so the resulting offsets are strictly
    increasing. Each batch becomes one chunk of boxed columns over its
    values (shared, not copied, unless a spilled input sends the table
    to disk). [inputs] as for {!create}. *)

val n_rows : t -> int

val n_chunks : t -> int

val chunk : t -> int -> Value.t array array
(** The rows of one chunk, decoded (a fresh array). On a spilled table
    this faults the frame in through the buffer pool. The engine uses
    {!chunk_data}. *)

val chunk_data : t -> int -> Columnar.t
(** One chunk as stored (shared, do not mutate). Faults through the
    buffer pool on a spilled table. *)

val of_chunk_data : inputs:t list -> name:string -> schema:Schema.t -> Columnar.t list -> t
(** Concatenation of pre-built chunks, kept as they are — the
    constructor for operator outputs (a join's boxed columns, a
    filter's gathered survivors). A spilled table writes them typed like
    any other. Empty chunks are dropped; chunk arity is the caller's
    obligation. [inputs] as for {!create}. *)

val iter_chunk_data : (int -> Columnar.t -> unit) -> t -> unit
(** Visit every chunk as stored, in index order with its chunk index.
    On a spilled table each chunk is pinned while [f] runs (released on
    exception) — the building block for sequential operators that
    consume whole chunks. *)

val chunk_offset : t -> int -> int
(** Global row id of the first row of the given chunk. *)

val chunk_index : t -> int -> int
(** The chunk holding global row id [i] (binary search over the chunk
    offsets, O(log n_chunks)); its ordinal there is [i - chunk_offset t
    (chunk_index t i)]. Index row ids ({!Index.lookup}) are global ids. *)

val row : t -> int -> Value.t array
(** Random access by global row id (binary search over the chunk offsets,
    O(log n_chunks)), decoded into a fresh row. Index row ids
    ({!Index.lookup}) are global ids. *)

val get : t -> row:int -> col:int -> Value.t
(** One cell by global row id: only that cell's column is read. *)

val iter : (Value.t array -> unit) -> t -> unit
(** Visit every row in row order. On a spilled table the chunk being
    consumed is pinned (released even if [f] raises). *)

val iteri : (int -> Value.t array -> unit) -> t -> unit
(** [iter] with the global row id. *)

val fold : ('a -> Value.t array -> 'a) -> 'a -> t -> 'a

val to_seq : t -> Value.t array Seq.t

val to_rows : t -> Value.t array array
(** Flat copy of all rows, decoded. For API boundaries that need a plain array; prefer the
    iterators elsewhere. *)

val column_values : t -> int -> Value.t array
(** All values of the column at the given position (in row order), read
    chunk by chunk through {!Columnar.reader}: no row is decoded. *)

val byte_size : t -> int
(** Approximate memory footprint of the row data (Table 4 accounting).
    Memoized per chunk: the first call walks each chunk's cells, later
    calls are O(n_chunks). *)

val chunk_byte_size : t -> int -> int
(** Memoized byte size of one chunk. *)

val rename : t -> string -> t
(** New table sharing chunks (and byte-size memo), with the given name
    and columns requalified to it. *)

val with_name : t -> string -> t
(** New table sharing chunks, renamed without requalifying the schema
    (temp materialization keeps alias-qualified columns). *)

val reschema : name:string -> schema:Schema.t -> t -> t
(** New table sharing chunks under a same-arity replacement schema
    (column flattening). *)

val digest : t -> string
(** Canonical multiset digest (32 hex characters), computed in one
    pass with no sort and no allocation per row. Each row is hashed,
    columns in sorted-id order, into two independently seeded 63-bit
    multiply-xorshift lanes; each value feeds its type tag, then its
    payload (the int, the float's IEEE bits, the bool, or a string's
    length and bytes). The finalized lanes are summed over the rows
    with wraparound, and the digest is the MD5 of the length-prefixed
    column ids, the row count and the two sums.

    It is invariant under row order, column order and chunking, and
    counts multiplicity: two tables holding the same multiset of rows
    over the same column ids digest identically regardless of how they
    were produced (harness, served or out-of-core execution). It is
    exact on values: [Int 1], [Float 1.0] and [Str "1"] differ, floats
    are compared by their bits ([-0.0] differs from [0.0]) except that
    every NaN counts as one NaN, and strings are length-prefixed, so
    no byte inside one can shift a column or row boundary. Values are
    comparable only within one build (the lanes read native byte
    order); none is meant to be stored. *)

val pp_sample : ?limit:int -> Format.formatter -> t -> unit
(** Debug/demo printer: schema plus the first [limit] rows (default 10). *)
