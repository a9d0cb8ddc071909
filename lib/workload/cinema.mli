(** The Cinema benchmark: an IMDB-shaped substitute for the Join Order
    Benchmark.

    Thirteen tables mirror the JOB schema's shape: a central [title]
    entity, four fact ("relationship") tables around it
    ([cast_info], [movie_keyword], [movie_companies], [movie_info]) and
    their dimension entities. Foreign keys are Zipf-skewed and several
    attributes are correlated across columns (keyword ↔ movie, company ↔
    country, info ↔ info_type, …), so the default estimator underestimates
    exactly the way it does on IMDB [25].

    Queries are generated from a seeded witness-based procedure: every
    query's filter constants are taken from one concrete "witness" join
    row, so all generated queries have non-empty results (the paper uses
    the 91 non-empty JOB queries). Shapes follow JOB: 4–10 relations,
    inverse-star patterns with several fact tables, occasional redundant
    cycle predicates (mk.movie_id = ci.movie_id). *)

module Catalog = Qs_storage.Catalog
module Query = Qs_query.Query

val build : ?scale:float -> ?spill:string * Qs_storage.Buffer_pool.t -> seed:int ->
  unit -> Catalog.t
(** Tables, primary keys, foreign keys; no indexes yet — call
    {!Catalog.build_indexes} with the configuration under test. Default
    scale 1.0 ≈ 290 k rows total. With [spill = (dir, pool)] each base
    table is written under [dir] and read through [pool] as soon as it
    is made ({!Datagen.table}), so the build never holds the whole
    catalog in memory; every table a query builds from them inherits
    that home. *)

val queries : Catalog.t -> seed:int -> n:int -> Query.t list
(** [n] distinct SPJ queries named ["cinema_<i>"]. *)

val default_query_count : int
(** 91, as in the paper's JOB evaluation. *)
