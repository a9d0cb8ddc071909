(** The database catalog: tables, key constraints, and index configuration.

    Primary-key / foreign-key metadata is what drives the paper's RCenter
    subquery-generation strategy (§4.1): a join predicate whose sides are an
    FK column and the PK it references is a non-expanding join, and the
    directed join graph is oriented by exactly this metadata. *)

type fk = {
  from_table : string;
  from_column : string;
  to_table : string;
  to_column : string;
}

type index_config = Pk_only | Pk_fk
(** The two index states evaluated in the paper (Fig. 11): B+Trees on
    primary keys only, or on both primary- and foreign-key columns. *)

type t

val create : unit -> t

val add_table : t -> ?pk:string -> Table.t -> unit
(** Registers a table, optionally declaring its primary-key column.
    Raises [Invalid_argument] on duplicate table names. *)

val add_fk : t -> from_table:string -> from_column:string -> to_table:string ->
  to_column:string -> unit
(** Declares that [from_table.from_column] references
    [to_table.to_column]. Both tables must already be registered. *)

val table : t -> string -> Table.t
(** Raises [Not_found]-style [Invalid_argument] on unknown names. *)

val mem_table : t -> string -> bool

val tables : t -> Table.t list

val pk : t -> string -> string option
(** Primary-key column of a table, if declared. *)

val fks : t -> fk list

val fk_between : t -> from_table:string -> to_table:string -> fk option
(** The FK constraint from one table to another, if any (first match). *)

val references : t -> string -> fk list
(** All FKs declared *on* the given table (outgoing references). *)

val referenced_by : t -> string -> fk list
(** All FKs pointing *to* the given table. *)

val build_indexes : t -> index_config -> unit
(** (Re)builds the B+Tree set for the requested configuration, discarding
    any previous indexes. PK indexes are unique. *)

val index_config : t -> index_config option
(** Currently built configuration, if [build_indexes] has run. *)

val find_index : t -> table:string -> column:string -> Index.t option
(** The built index over the column, if the current configuration has one.
    Also answers for temp tables registered via [register_temp_index]. *)

val register_temp_index : t -> Index.t -> unit
(** Used by tests/extensions to expose an ad-hoc index to the optimizer. *)

val map_tables : t -> (Table.t -> Table.t) -> unit
(** Replaces every table [tbl] by [f tbl], in place — e.g.
    [map_tables cat (Table.spill ~dir ~pool)] moves a built catalog
    out-of-core (the whole catalog is resident first; a build that
    spills each table as it makes it holds one at a time). [f] must
    keep the name, the schema and the row order: indexes key global
    row ids, and stay valid. *)

val total_bytes : t -> int
(** Sum of table byte sizes, for reporting. *)
