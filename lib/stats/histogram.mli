(** Equi-depth histograms, as PostgreSQL keeps per column.

    Built over the non-null values of a column; answers cumulative-fraction
    questions for range selectivity estimation. *)

module Value = Qs_storage.Value

type t

val build : Value.t array -> n_buckets:int -> t option
(** [None] when there are no non-null values. The input need not be
    sorted. *)

val of_sorted_counts : (Value.t * int) array -> n_buckets:int -> t option
(** [build] from the distinct non-null values in ascending
    [Value.compare] order, each with its (positive) count: the same
    bounds, without sorting the values. Exact when compare-equal values
    are identical (see {!Column_stats.of_values}). *)

val n_buckets : t -> int

val bounds : t -> Value.t array
(** [n_buckets + 1] ascending bucket boundaries. *)

val fraction_le : t -> Value.t -> float
(** Estimated fraction of (non-null) values [<= x], with linear
    interpolation inside numeric buckets. *)

val fraction_lt : t -> Value.t -> float

val fraction_between : t -> lo:Value.t -> hi:Value.t -> float
(** Inclusive range fraction; 0 when [hi < lo]. *)
