(** Per-column statistics, PostgreSQL pg_statistic style: null fraction,
    distinct count, most-common values, equi-depth histogram. *)

module Value = Qs_storage.Value

type t = {
  n_values : int;  (** rows the stats were computed from *)
  null_frac : float;
  n_distinct : int;  (** distinct non-null values *)
  min_v : Value.t option;
  max_v : Value.t option;
  mcvs : (Value.t * float) list;  (** top values with frequency fractions, descending *)
  hist : Histogram.t option;
}

val of_values : ?n_mcv:int -> ?n_buckets:int -> Value.t array -> t
(** Full ANALYZE of one column (defaults: 10 MCVs, 64 buckets). A plain
    column (one value type; for floats no NaN and no [-0.0]) is analysed
    from its distinct keys and their counts: one sort of the distinct
    keys, no sort of the values. Any other column sorts its values. Both
    give the same result, bit for bit, as sorting would. *)

val mcv_total : t -> float
(** Sum of MCV frequency fractions. *)

val mcv_freq : t -> Value.t -> float option
(** Frequency fraction if the value is one of the MCVs. *)

val max_freq : t -> float
(** Frequency fraction of the most common value; falls back to [1/ndv] when
    no MCV is recorded. Used by the pessimistic (upper-bound) estimator. *)

val byte_size_hint : t -> int
(** Rough footprint of the stats themselves (reporting only). *)
