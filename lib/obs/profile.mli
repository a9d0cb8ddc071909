(** Text profile of a span tracer: per-category span counts and time,
    per-domain utilization (busy interval-union / wall), pool queue-wait
    percentiles, DP throughput (per [dp-level] name: subsets, emitted /
    pruned candidates, memo hits, and plans/s when timings are on — only
    for spans carrying those counters), the DP-memo hit rate (from
    [dp-memo] markers), the re-optimization journal (one line per
    [reopt-step] span: selected subquery, score, est vs. actual rows,
    whether the remaining plan was replanned).

    [timings:false] suppresses every wall-clock figure (durations,
    utilization, percentiles), leaving output that is a pure
    function of the recorded span sequence — golden-testable. *)

val summary : ?timings:bool -> Qs_util.Span.t -> string
(** [timings] defaults to [true]. *)

val rollup : Qs_util.Span.span list -> (string * int * float) list
(** Per-category span count and summed duration ([category, spans,
    seconds]), in {!Qs_util.Span.all_categories} order, categories with
    no span left out: the table {!summary} prints and a flight record
    keeps. *)
