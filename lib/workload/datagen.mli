(** Column generators shared by the synthetic benchmarks.

    The generators are deliberately *not* independent: foreign keys are
    Zipf-skewed and attribute values can be correlated with other columns
    of the same row. Skew plus correlation is what makes the default
    (independence-assuming) estimator err the way it does on IMDB/DSB —
    the phenomenon the whole paper is about. *)

module Value = Qs_storage.Value
module Table = Qs_storage.Table
module Rng = Qs_util.Rng
module Zipf = Qs_util.Zipf

val serial : int -> Value.t array
(** ids 1..n. *)

val zipf_fk : Rng.t -> n:int -> domain:int -> theta:float -> Value.t array
(** [n] foreign keys into ids 1..domain, rank-skewed with [theta]. *)

val zipf_ranks : Rng.t -> n:int -> domain:int -> theta:float -> int array
(** Raw popularity ranks (0 = hottest), for generators that must share one
    popularity order across several fact tables. *)

val permutation : Rng.t -> int -> int array
(** A shuffled [1..n] id assignment: [perm.(rank)] is the id holding that
    popularity rank. *)

val rank_band_fk : Rng.t -> ranks:int array -> rank_domain:int -> domain:int ->
  bands:int -> noise:float -> Value.t array
(** Foreign keys whose target id band is determined by the *popularity
    rank* of the row's subject: hot rows reference the first band of the
    target domain. Filtering the target by band then concentrates the
    surviving fact rows on the hottest subjects — the skew-correlation
    interaction that makes independence-based estimates collapse on
    IMDB-like data. *)

val uniform_fk : Rng.t -> n:int -> domain:int -> Value.t array

val correlated_fk : Rng.t -> base:Value.t array -> domain:int -> bands:int ->
  noise:float -> Value.t array
(** Foreign keys correlated with [base]: each base value deterministically
    selects one of [bands] contiguous id bands of the target domain, and
    the key is drawn from that band (or, with probability [noise], from
    the whole domain). Joining through such a column breaks the
    independence assumption badly. *)

val tagged_strings : Rng.t -> n:int -> prefixes:string array -> pool:int -> Value.t array
(** Strings of the form ["<prefix>_w<k>"]; prefix chosen uniformly, [k]
    Zipf-skewed over [pool]. Gives LIKE predicates something to match. *)

val int_between : Rng.t -> n:int -> lo:int -> hi:int -> skew:float -> Value.t array
(** Zipf-skewed integers in [lo, hi]; rank 0 = [hi] (recent years are the
    most frequent, as in IMDB production years). *)

val with_nulls : Rng.t -> frac:float -> Value.t array -> Value.t array

val table : ?spill:string * Qs_storage.Buffer_pool.t -> name:string ->
  (string * Value.ty * Value.t array) list -> Table.t
(** Assemble a base table from named columns (all must have equal
    length). With [spill = (dir, pool)] it goes to disk as soon as it is
    made ({!Table.spill}), so a spilled build holds one table's rows at
    a time. *)
