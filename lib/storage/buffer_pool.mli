(** Bounded buffer pool of resident chunk frames.

    The faulting read path of spilled tables: {!get} returns a chunk
    (always column-major, see {!Chunk_file}), reading it from the
    {!Chunk_file} on a miss and caching it in one of [capacity] frames
    under CLOCK (second-chance) eviction. Pinned frames ({!with_pin}) are never evicted; when every
    frame is pinned or mid-read, a miss bypasses the pool and reads
    uncached, so correctness never depends on capacity — a pool of 1
    still executes every query, just with more I/O.

    All state is guarded by one mutex and safe to share across domains;
    disk reads happen outside the lock. Concurrent faults of the same
    chunk coalesce: one domain reads, the rest wait on its broadcast.

    {!prefetch} reserves frames for upcoming chunks and hands the reads
    to an attached {!Qs_util.Pool} via [Pool.submit], so sequential
    scans overlap I/O with CPU work. A reservation not yet started is
    *stolen* by the first foreground miss (the reader does the I/O
    itself) — a prefetch job stuck in the queue of a busy or size-1
    pool can never block a reader. *)

type t

type stats = {
  hits : int;  (** chunk already resident *)
  misses : int;  (** chunk read on the calling domain *)
  coalesced : int;  (** waited for another domain's in-flight read *)
  bypasses : int;  (** read uncached: every frame pinned or in flight *)
  evictions : int;  (** loaded frames evicted *)
  prefetch_issued : int;  (** frames reserved for asynchronous reads *)
  prefetch_used : int;  (** prefetched frames later hit by a consumer *)
  prefetch_wasted : int;  (** prefetched frames evicted without a hit *)
}

val create : ?prefetch:int -> capacity:int -> unit -> t
(** [create ~capacity ()] makes a pool of [max 1 capacity] frames.
    [prefetch] (default 2) is the lookahead depth {!Table} uses when
    scanning a spilled table through this pool. *)

val capacity : t -> int

val prefetch_depth : t -> int

val set_io_pool : t -> Qs_util.Pool.t option -> unit
(** Attach the worker pool that runs prefetch reads. With [None]
    (the default) {!prefetch} is a no-op and every read is a
    synchronous foreground fault. *)

val set_tracer : t -> Qs_util.Span.t option -> unit
(** With a tracer attached, every disk read records an [io] span
    (names [fault] / [prefetch]) on the reading domain's track. *)

val get : t -> Chunk_file.t -> int -> Chunk.t
(** [get t file i] returns chunk [i], faulting it in on a miss. The
    returned chunk is shared — do not mutate. It stays valid after
    eviction (the GC keeps it alive while referenced). *)

val with_pin : t -> Chunk_file.t -> int -> (Chunk.t -> 'a) -> 'a
(** [with_pin t file i f] runs [f chunk] with the frame pinned, so a
    scan's current chunk cannot be evicted under it. The pin is
    released on return and on exception (cancellation-safe); a bypass
    read has no frame and pins nothing. *)

val prefetch : t -> Chunk_file.t -> int list -> unit
(** Reserve frames for the given chunks and enqueue their reads on the
    attached I/O pool. Out-of-range and already-resident chunks are
    skipped; reservation stops early when no evictable frame is left
    (never thrashes pinned or recently-used frames). No-op without an
    attached pool. *)

val stats : t -> stats

val reset_stats : t -> unit

val pinned : t -> int
(** Total outstanding pins (0 when no scan is mid-chunk) — the
    leak-check hook for cancellation tests. *)

val resident : t -> int
(** Number of frames currently holding loaded rows. *)
