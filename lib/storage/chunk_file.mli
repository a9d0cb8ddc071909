(** On-disk chunk files for spilled tables.

    One write-once binary file per spilled table: a header plus one
    fixed-size frame per chunk. A frame starts with a directory that
    gives each column block's offset and length, so faulting chunk [i]
    reads just the frame header and directory, and each column block is
    one seek + read away. A chunk's boxed columns are encoded typed on
    the way out ({!Columnar.encode}), so a frame's bytes do not depend
    on how its chunk was built (a resident table's rows or an operator's
    output) and a spilled table always faults back typed. Values
    round-trip
    exactly — floats through their IEEE bits, string dictionaries
    entry-for-entry — which keeps out-of-core result digests
    byte-identical to in-memory execution.

    Reads open and close the file per call: no persistent descriptors,
    so concurrent reads from several domains need no coordination here
    — residency and deduplication of frame faults live in
    {!Buffer_pool}. *)

type t

val ser_chunk_size : Columnar.t -> int
(** Exact serialized payload size of a chunk's column blocks (encoded
    first, as {!write} would). [write] sizes
    frames from the maximum of this over all chunks — not from the
    row-form size, which a dictionary-heavy string column (dict entries
    + 4-byte codes larger than the inline strings) can exceed. Exposed
    for the frame-sizing regression test and the bench metrics. *)

val write : dir:string -> name:string -> arity:int -> Columnar.t array -> t * int array
(** [write ~dir ~name ~arity chunks] spills the chunks (boxed columns
    encoded typed) to a fresh uniquely-named file under [dir] and
    returns the handle plus each chunk's logical byte size
    ({!Columnar.byte_size}, computed during the serialization walk so
    {!Table.byte_size} never faults). Raises [Invalid_argument] on an
    empty chunk array or any zero-row chunk: a spilled frame must never
    be empty, or chunk faulting could map a row offset to a zero-length
    frame. *)

val read :
  ?block:(col:int -> (unit -> Columnar.column) -> Columnar.column) -> t -> int -> Columnar.t
(** [read t i] faults frame [i] back in as a chunk of typed columns. It reads
    the frame header and directory only (open, seek, read, close) and
    checks them; column [j]'s block is read and decoded the first time
    the chunk's column [j] is touched, through [block ~col:j load]
    (default: [load ()]; the buffer pool times it as I/O), and kept in
    the chunk for later readers. A corrupt header or directory raises
    [Failure] here, a corrupt block at its first touch. The file must
    still exist when a column is first touched. Safe to call, and to
    touch the chunk, concurrently from any domain. *)

val id : t -> int
(** Process-unique id, the buffer pool's cache key. *)

val path : t -> string

val n_frames : t -> int
