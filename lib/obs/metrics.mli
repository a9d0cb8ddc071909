(** A named registry of counters and streaming histograms — the aggregate
    side of the observability layer. The harness keeps one registry per
    strategy and renders them as one machine-readable report; its
    deterministic part is the committed [BENCH.json] golden. *)

type t

val create : unit -> t

val incr : ?by:int -> t -> string -> unit
(** Bump a counter, creating it at zero on first use. *)

val counter : t -> string -> int
(** Current counter value; 0 if never bumped. *)

val observe : t -> string -> float -> unit
(** Record a measurement into a histogram, creating it on first use. *)

val histogram : t -> string -> Histogram.t option

val add_histogram : t -> string -> Histogram.t -> unit
(** Merge an externally built histogram into the named one, creating it
    on first use. The source is left untouched — this is how the
    telemetry layer exports its streaming latency histograms without
    handing out mutable references. *)

val merge : into:t -> t -> unit
(** [merge ~into src] folds [src] into [into]: counters add, histograms
    merge observation-by-summary. Used to combine per-domain registries
    after a parallel harness run; [src] is left untouched. *)

val counter_names : t -> string list
(** Sorted. *)

val histogram_names : t -> string list
(** Sorted. *)

val to_json : t -> string
(** One JSON object: [{"counters": {...}, "histograms": {...}}] with keys
    sorted, each histogram summarised as count / sum / mean / min / max /
    p50 / p90 / p95 / p99. Deterministic for a deterministic run. *)

val json_of_many : (string * t) list -> string
(** [{"<label>": <to_json>, ...}] with one labelled entry per line, so a
    line diff of two reports names the entry that moved — the
    per-strategy report the harness emits and [bench/main.exe] writes
    with [--metrics-out]. *)

val escape : string -> string
(** JSON string-body escaping (shared by the other obs exporters). *)
