(** Starbench: a TPC-H-shaped star-schema benchmark.

    TPC-H's role in the paper (§6.3.2) is the *worst case* for
    re-optimization: a strict star schema with near-uniform data whose
    PK–FK joins are non-expanding, so the default optimizer rarely errs
    badly. Data here is deliberately uniform, unlike {!Cinema}.

    The 22 queries are all non-SPJ (aggregations over joins, two
    EXISTS/NOT EXISTS, one UNION ALL), mirroring the paper's setup where
    only the non-SPJ-capable strategies run on TPC-H. *)

module Catalog = Qs_storage.Catalog
module Logical = Qs_plan.Logical

val build : ?scale:float -> ?spill:string * Qs_storage.Buffer_pool.t -> seed:int ->
  unit -> Catalog.t
(** With [spill = (dir, pool)] each base table is written under [dir]
    and read through [pool] as soon as it is made ({!Datagen.table}), so
    the build never holds the whole catalog in memory; every table a
    query builds from them inherits that home. *)

val queries : Catalog.t -> seed:int -> Logical.t list
(** Exactly 22 logical trees named ["star_q1"] … ["star_q22"]. *)
