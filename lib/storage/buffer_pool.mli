(** Bounded buffer pool of resident chunk frames.

    The faulting read path of spilled tables: {!get} returns a chunk
    (typed columns, see {!Chunk_file}), reading it from the
    {!Chunk_file} on a miss and caching it in one of [capacity] frames
    under CLOCK (second-chance) eviction. Pinned frames ({!with_pin}) are never evicted; when every
    frame is pinned or mid-read, a miss bypasses the pool and reads
    uncached, so correctness never depends on capacity — a pool of 1
    still executes every query, just with more I/O.

    Every read happens on the faulting domain. All state is guarded by
    one mutex and safe to share across domains (serving sessions and
    harness cells fault concurrently); disk reads happen outside the
    lock. Concurrent faults of the same chunk coalesce: one domain
    reads, the rest wait on its broadcast. *)

type t

type stats = {
  hits : int;  (** chunk already resident *)
  misses : int;  (** chunk read on the calling domain *)
  coalesced : int;  (** waited for another domain's in-flight read *)
  bypasses : int;  (** read uncached: every frame pinned or in flight *)
  evictions : int;  (** loaded frames evicted *)
}

val create : capacity:int -> unit -> t
(** [create ~capacity ()] makes a pool of [max 1 capacity] frames. *)

val capacity : t -> int

val set_tracer : t -> Qs_util.Span.t option -> unit
(** With a tracer attached, every disk read records an [io] span named
    [fault] on the reading domain's track: one per frame fault, and one
    per column block read, whose args add the block's [col]. *)

val get : t -> Chunk_file.t -> int -> Columnar.t
(** [get t file i] returns chunk [i], faulting it in on a miss. A fault
    reads the frame header and its column directory only; each column
    block is read and decoded the first time the chunk's column is
    touched (through any {!Columnar} accessor), inside an [io] [fault]
    span, and is then kept with the frame, so later hits share the
    decoded column and untouched columns are never read. The returned
    chunk is shared — do not mutate. It stays valid after eviction (the
    GC keeps it alive while referenced), as long as its chunk file
    exists. *)

val with_pin : t -> Chunk_file.t -> int -> (Columnar.t -> 'a) -> 'a
(** [with_pin t file i f] runs [f chunk] with the frame pinned, so a
    scan's current chunk cannot be evicted under it. The pin is
    released on return and on exception (cancellation-safe); a bypass
    read has no frame and pins nothing. *)

val stats : t -> stats

val reset_stats : t -> unit

val pinned : t -> int
(** Total outstanding pins (0 when no scan is mid-chunk) — the
    leak-check hook for cancellation tests. *)

val resident : t -> int
(** Number of frames currently holding loaded rows. *)
