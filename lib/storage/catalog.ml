type fk = {
  from_table : string;
  from_column : string;
  to_table : string;
  to_column : string;
}

type index_config = Pk_only | Pk_fk

type t = {
  tables : (string, Table.t) Hashtbl.t;
  pks : (string, string) Hashtbl.t;
  mutable fk_list : fk list;
  indexes : (string * string, Index.t) Hashtbl.t;
  mutable config : index_config option;
}

let create () =
  {
    tables = Hashtbl.create 16;
    pks = Hashtbl.create 16;
    fk_list = [];
    indexes = Hashtbl.create 32;
    config = None;
  }

let add_table t ?pk (tbl : Table.t) =
  if Hashtbl.mem t.tables tbl.name then
    invalid_arg ("Catalog.add_table: duplicate table " ^ tbl.name);
  Hashtbl.replace t.tables tbl.name tbl;
  Option.iter
    (fun col ->
      if Schema.find_by_name tbl.schema col = None then
        invalid_arg (Printf.sprintf "Catalog.add_table: pk %s not in %s" col tbl.name);
      Hashtbl.replace t.pks tbl.name col)
    pk

let table t name =
  match Hashtbl.find_opt t.tables name with
  | Some tbl -> tbl
  | None -> invalid_arg ("Catalog.table: unknown table " ^ name)

let mem_table t name = Hashtbl.mem t.tables name

let tables t = Hashtbl.fold (fun _ tbl acc -> tbl :: acc) t.tables []

let add_fk t ~from_table ~from_column ~to_table ~to_column =
  ignore (table t from_table);
  ignore (table t to_table);
  t.fk_list <- { from_table; from_column; to_table; to_column } :: t.fk_list

let pk t name = Hashtbl.find_opt t.pks name

let fks t = t.fk_list

let fk_between t ~from_table ~to_table =
  List.find_opt (fun fk -> fk.from_table = from_table && fk.to_table = to_table) t.fk_list

let references t name = List.filter (fun fk -> fk.from_table = name) t.fk_list

let referenced_by t name = List.filter (fun fk -> fk.to_table = name) t.fk_list

let build_indexes t config =
  Hashtbl.reset t.indexes;
  t.config <- Some config;
  let add tbl column ~unique =
    let key = (tbl, column) in
    if not (Hashtbl.mem t.indexes key) then
      Hashtbl.replace t.indexes key (Index.build (table t tbl) ~column ~unique)
  in
  Hashtbl.iter (fun tbl col -> add tbl col ~unique:true) t.pks;
  match config with
  | Pk_only -> ()
  | Pk_fk ->
      List.iter (fun fk -> add fk.from_table fk.from_column ~unique:false) t.fk_list

let index_config t = t.config

let find_index t ~table ~column = Hashtbl.find_opt t.indexes (table, column)

let register_temp_index t idx =
  Hashtbl.replace t.indexes (idx.Index.table, idx.Index.column) idx

let map_tables t f = Hashtbl.filter_map_inplace (fun _ tbl -> Some (f tbl)) t.tables

let total_bytes t =
  Hashtbl.fold (fun _ tbl acc -> acc + Table.byte_size tbl) t.tables 0
