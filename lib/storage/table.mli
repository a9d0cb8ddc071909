(** Tables sharded into fixed-size chunks, resident in memory or
    spilled to disk.

    Tables are immutable after construction; the engine materializes
    intermediate results as fresh tables. Rows live in chunks of at most
    [chunk_rows] rows ({!default_chunk_rows} unless overridden per
    table), so very large tables are never one allocation and a spilled
    table pages one frame at a time. Row order is chunk order:
    iterating chunks in index order visits exactly the row order
    [create] was given.

    The store picks the chunk layout. A resident table built from rows
    keeps them as row arrays; a spilled table's chunks fault back in
    column-major, one unboxed array per column ({!Columnar.t}), because
    the {!Chunk_file} writer encodes every frame that way. Chunks built
    columnar by an operator ({!of_chunk_data}) stay columnar in either
    store. The row-oriented API below works on both layouts (it decodes
    on access), while layout-aware consumers use {!chunk_data} /
    {!iter_chunk_data} to reach the columns directly.

    With spill mode enabled ({!set_spill}), every newly built table
    writes its chunks to a {!Chunk_file} and the chunk API becomes a
    faulting read path through the shared {!Buffer_pool}: {!chunk} and
    {!row} fault frames in on demand, and {!iter}/{!iteri}/{!fold} pin
    the chunk being consumed, one frame at a time on the caller's
    domain. Results are value-identical either way —
    {!digest} is invariant across resident and spilled execution. *)

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
}

val default_chunk_rows : unit -> int
(** Rows per chunk for tables built without [?chunk_rows] (default 64k). *)

val set_default_chunk_rows : int -> unit
(** Set the global default (clamped to >= 1). Intended to be called once
    at startup (the [--chunk-rows] flag), before tables are built. *)

val set_spill : (string * Buffer_pool.t) option -> unit
(** [set_spill (Some (dir, pool))] turns on out-of-core mode: every
    table built from now on spills its chunks to a file under [dir] and
    reads them back through [pool]. [set_spill None] turns it off.
    Already-built tables keep their store either way. Intended to be
    set once at startup ([--spill-dir]); tests toggling it around a
    body must restore the previous config ({!spill_config}). *)

val spill_config : unit -> (string * Buffer_pool.t) option
(** The current spill mode (for save/restore and for attaching a
    tracer to the active buffer pool). *)

val spilled : t -> bool
(** Whether this table's chunks live on disk. *)

val create : ?chunk_rows:int -> name:string -> schema:Schema.t ->
  Value.t array array -> t
(** Rows must match the schema arity; they are split into chunks of
    [chunk_rows] (last chunk may be short). *)

val of_rows : ?chunk_rows:int -> name:string -> schema:Schema.t ->
  Value.t array list -> t

val of_chunks : name:string -> schema:Schema.t -> Value.t array array list -> t
(** Concatenation of pre-chunked row batches, in order. Batches may be
    ragged (per-chunk filter outputs) and interleaved with empty ones;
    empty batches are dropped, so the resulting offsets are strictly
    increasing. The batch arrays are shared, not copied (unless spill
    mode rewrites them to disk). *)

val n_rows : t -> int

val n_chunks : t -> int

val chunk : t -> int -> Value.t array array
(** The rows of one chunk (shared, do not mutate). On a spilled table
    this faults the frame in through the buffer pool. On a columnar
    chunk this decodes — layout-aware consumers should use
    {!chunk_data}. *)

val chunk_data : t -> int -> Chunk.t
(** One chunk in its stored layout (shared, do not mutate). Faults
    through the buffer pool on a spilled table. *)

val of_chunk_data : name:string -> schema:Schema.t -> Chunk.t list -> t
(** Concatenation of pre-built chunks in whichever layout each already
    has — the constructor for operator outputs that want to preserve
    their input's layout (a columnar filter keeps its gathered columns
    columnar) rather than decode to rows. Under spill mode row-major
    chunks are written column-major like any other. Empty chunks are
    dropped; chunk arity is the caller's obligation. *)

val iter_chunk_data : (int -> Chunk.t -> unit) -> t -> unit
(** {!iter_chunks} without the row decode: visit every chunk in its
    stored layout. Same pinning behaviour. *)

val chunk_offset : t -> int -> int
(** Global row id of the first row of the given chunk. *)

val chunk_list : t -> Value.t array array list
(** All chunks in row order (shared arrays). *)

val row : t -> int -> Value.t array
(** Random access by global row id (binary search over the chunk offsets,
    O(log n_chunks)). Index row ids ({!Index.lookup}) are global ids. *)

val get : t -> row:int -> col:int -> Value.t

val iter_chunks : (int -> Value.t array array -> unit) -> t -> unit
(** Visit every chunk in index order with its chunk index. On a spilled
    table each chunk is pinned while [f] runs (released on exception)
    — the building block for sequential operators that consume whole
    chunks. *)

val iter : (Value.t array -> unit) -> t -> unit
(** Visit every row in row order. On a spilled table the chunk being
    consumed is pinned (released even if [f] raises). *)

val iteri : (int -> Value.t array -> unit) -> t -> unit
(** [iter] with the global row id. *)

val fold : ('a -> Value.t array -> 'a) -> 'a -> t -> 'a

val to_seq : t -> Value.t array Seq.t

val to_rows : t -> Value.t array array
(** Flat copy of all rows (the single chunk itself when there is only
    one). For API boundaries that need a plain array; prefer the
    iterators elsewhere. *)

val column_values : t -> int -> Value.t array
(** All values of the column at the given position (in row order). *)

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
(** Canonical multiset digest (hex MD5): rows rendered with columns in
    sorted-id order, then sorted, so the digest is invariant under row
    and column order. Two tables holding the same multiset of rows over
    the same column ids digest identically regardless of how they were
    produced (harness, served or out-of-core execution). *)

val pp_sample : ?limit:int -> Format.formatter -> t -> unit
(** Debug/demo printer: schema plus the first [limit] rows (default 10). *)
