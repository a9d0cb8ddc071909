(** A DSB-shaped benchmark: TPC-DS-style snowflake schema with *injected
    skew* (DSB = TPC-DS + skew [11]).

    Two fact tables ([store_sales], [web_sales]) over shared dimensions
    let the SPJ queries include fact-fact joins (the inverse-star pattern
    QuerySplit targets), while most queries remain star-shaped. Sales
    columns are Zipf-skewed and item/promotion/date attributes are
    correlated, giving the default estimator DSB-like errors — milder than
    {!Cinema}, harsher than {!Starbench}. *)

module Catalog = Qs_storage.Catalog
module Query = Qs_query.Query
module Logical = Qs_plan.Logical

val build : ?scale:float -> ?spill:string * Qs_storage.Buffer_pool.t -> seed:int ->
  unit -> Catalog.t
(** With [spill = (dir, pool)] each base table is written under [dir]
    and read through [pool] as soon as it is made ({!Datagen.table}), so
    the build never holds the whole catalog in memory; every table a
    query builds from them inherits that home. *)

val spj_queries : Catalog.t -> seed:int -> Query.t list
(** 15 SPJ queries, named ["dsb_spj_<i>"] (the paper's Fig. 13 set). *)

val nonspj_queries : Catalog.t -> seed:int -> Logical.t list
(** 37 non-SPJ trees, named ["dsb_q<i>"] (the paper's Fig. 14 set). *)
