module Catalog = Qs_storage.Catalog
module Table = Qs_storage.Table
module Value = Qs_storage.Value
module Schema = Qs_storage.Schema
module Query = Qs_query.Query
module Expr = Qs_query.Expr
module Rng = Qs_util.Rng
module Zipf = Qs_util.Zipf
module D = Datagen

let default_query_count = 91

let sz scale base = max 8 (int_of_float (float_of_int base *. scale))

let pick_zipf rng arr theta =
  let z = Zipf.create ~n:(Array.length arr) ~theta in
  fun () -> arr.(Zipf.sample z rng)

let build ?(scale = 1.0) ?spill ~seed () =
  let rng = Rng.create seed in
  let cat = Catalog.create () in
  let table = D.table ?spill in
  let n_title = sz scale 20000 in
  let n_keyword = sz scale 5000 in
  let n_company = sz scale 2500 in
  let n_name = sz scale 12000 in
  let n_char = sz scale 6000 in
  let n_mk = sz scale 50000 in
  let n_mc = sz scale 40000 in
  let n_ci = sz scale 100000 in
  let n_mi = sz scale 50000 in

  (* small dimension tables *)
  let kinds = [| "movie"; "tv series"; "tv movie"; "video"; "short"; "episode"; "game" |] in
  let kt =
    table ~name:"kind_type"
      [
        ("id", Value.TInt, D.serial (Array.length kinds));
        ("kind", Value.TStr, Array.map (fun s -> Value.Str s) kinds);
      ]
  in
  let infos =
    Array.init 30 (fun i ->
        [| "budget"; "genres"; "countries"; "rating"; "votes"; "runtime" |].(i mod 6)
        ^ "-" ^ string_of_int (i / 6))
  in
  let it =
    table ~name:"info_type"
      [
        ("id", Value.TInt, D.serial 30);
        ("info", Value.TStr, Array.map (fun s -> Value.Str s) infos);
      ]
  in
  let roles =
    [| "actor"; "actress"; "producer"; "writer"; "editor"; "director";
       "cinematographer"; "composer"; "costume"; "guest"; "crew"; "stunt" |]
  in
  let rt =
    table ~name:"role_type"
      [
        ("id", Value.TInt, D.serial (Array.length roles));
        ("role", Value.TStr, Array.map (fun s -> Value.Str s) roles);
      ]
  in
  let ctypes = [| "production companies"; "distributors"; "special effects"; "misc" |] in
  let ct =
    table ~name:"company_type"
      [
        ("id", Value.TInt, D.serial (Array.length ctypes));
        ("kind", Value.TStr, Array.map (fun s -> Value.Str s) ctypes);
      ]
  in

  (* entity tables *)
  let kw_prefixes = [| "hero"; "sequel"; "war"; "love"; "blood"; "dream" |] in
  let k =
    table ~name:"keyword"
      [
        ("id", Value.TInt, D.serial n_keyword);
        ( "keyword",
          Value.TStr,
          (* the prefix is determined by the id band, so a LIKE 'hero_%'
             filter selects one contiguous band of keyword ids — and the
             fact side references bands by movie popularity *)
          Array.init n_keyword (fun i ->
              Value.Str
                (Printf.sprintf "%s_w%d"
                   kw_prefixes.(i * Array.length kw_prefixes / n_keyword)
                   (Rng.int rng 600))) );
      ]
  in
  let countries =
    [| "us"; "gb"; "de"; "fr"; "jp"; "in"; "it"; "ca"; "es"; "se"; "br"; "kr" |]
  in
  let pick_country = pick_zipf rng countries 1.0 in
  let cn =
    table ~name:"company_name"
      [
        ("id", Value.TInt, D.serial n_company);
        ( "name",
          Value.TStr,
          D.tagged_strings rng ~n:n_company
            ~prefixes:[| "studio"; "films"; "pictures"; "media" |]
            ~pool:800 );
        ( "country_code",
          Value.TStr,
          (* countries correlate with the company id band: joining through
             mc.company_id and filtering on country breaks independence *)
          Array.init n_company (fun i ->
              if Rng.bernoulli rng 0.25 then Value.Str (pick_country ())
              else Value.Str countries.(i * Array.length countries / n_company)) );
      ]
  in
  let genders =
    Array.init n_name (fun _ ->
        if Rng.bernoulli rng 0.05 then Value.Null
        else if Rng.bernoulli rng 0.62 then Value.Str "m"
        else Value.Str "f")
  in
  let n_tbl =
    table ~name:"name"
      [
        ("id", Value.TInt, D.serial n_name);
        ( "name",
          Value.TStr,
          (let surname = [| "smith"; "lee"; "garcia"; "chen"; "khan"; "ivanov"; "sato" |] in
           Array.init n_name (fun i ->
               Value.Str
                 (Printf.sprintf "%s_w%d"
                    surname.(i * Array.length surname / n_name)
                    (Rng.int rng 2500)))) );
        ("gender", Value.TStr, genders);
      ]
  in
  let chn =
    table ~name:"char_name"
      [
        ("id", Value.TInt, D.serial n_char);
        ( "name",
          Value.TStr,
          D.tagged_strings rng ~n:n_char
            ~prefixes:[| "captain"; "doctor"; "agent"; "king"; "queen" |]
            ~pool:1500 );
      ]
  in

  (* the central entity: title. One popularity order is shared by every
     fact table (a hit movie has many keywords AND a large cast AND many
     info rows), and production years skew towards it: recent movies are
     the popular ones. A year filter therefore concentrates every fact
     table on the hottest movies — which the independence assumption
     cannot see. This is the engineered analogue of IMDB's skew. *)
  let movie_perm = D.permutation rng n_title in
  let movie_rank = Array.make (n_title + 1) 0 in
  Array.iteri (fun rank id -> movie_rank.(id) <- rank) movie_perm;
  let years =
    Array.init n_title (fun i ->
        let rank = movie_rank.(i + 1) in
        let base = 2019 - (rank * 70 / n_title) in
        Value.Int (max 1950 (base - Rng.int rng 8)))
  in
  let t =
    table ~name:"title"
      [
        ("id", Value.TInt, D.serial n_title);
        ( "title",
          Value.TStr,
          D.tagged_strings rng ~n:n_title
            ~prefixes:[| "the"; "a"; "dark"; "last"; "great"; "return" |]
            ~pool:4000 );
        ( "kind_id",
          Value.TInt,
          (* kind correlates with the production-year band *)
          D.correlated_fk rng ~base:years ~domain:(Array.length kinds) ~bands:7
            ~noise:0.3 );
        ("production_year", Value.TInt, years);
      ]
  in

  (* fact / relationship tables around title: all share [movie_perm] *)
  let fact_ranks theta n = D.zipf_ranks rng ~n ~domain:n_title ~theta in
  let movie_ids ranks = Array.map (fun r -> Value.Int movie_perm.(r)) ranks in
  let mk_ranks = fact_ranks 1.0 n_mk in
  let mk =
    table ~name:"movie_keyword"
      [
        ("id", Value.TInt, D.serial n_mk);
        ("movie_id", Value.TInt, movie_ids mk_ranks);
        ( "keyword_id",
          Value.TInt,
          (* hot movies carry keywords from the first bands — whose strings
             share a prefix, so the LIKE filters hit them together *)
          D.rank_band_fk rng ~ranks:mk_ranks ~rank_domain:n_title ~domain:n_keyword
            ~bands:12 ~noise:0.25 );
      ]
  in
  let mc_ranks = fact_ranks 0.9 n_mc in
  let mc_company =
    D.rank_band_fk rng ~ranks:mc_ranks ~rank_domain:n_title ~domain:n_company ~bands:10
      ~noise:0.25
  in
  let mc =
    table ~name:"movie_companies"
      [
        ("id", Value.TInt, D.serial n_mc);
        ("movie_id", Value.TInt, movie_ids mc_ranks);
        ("company_id", Value.TInt, mc_company);
        ( "company_type_id",
          Value.TInt,
          D.correlated_fk rng ~base:mc_company ~domain:(Array.length ctypes) ~bands:4
            ~noise:0.2 );
      ]
  in
  let ci_ranks = fact_ranks 1.05 n_ci in
  let ci_person =
    D.rank_band_fk rng ~ranks:ci_ranks ~rank_domain:n_title ~domain:n_name ~bands:14
      ~noise:0.3
  in
  let ci =
    table ~name:"cast_info"
      [
        ("id", Value.TInt, D.serial n_ci);
        ("movie_id", Value.TInt, movie_ids ci_ranks);
        ("person_id", Value.TInt, ci_person);
        ( "role_id",
          Value.TInt,
          D.correlated_fk rng ~base:ci_person ~domain:(Array.length roles) ~bands:12
            ~noise:0.4 );
        ( "person_role_id",
          Value.TInt,
          D.with_nulls rng ~frac:0.4 (D.uniform_fk rng ~n:n_ci ~domain:n_char) );
      ]
  in
  let mi_ranks = fact_ranks 0.9 n_mi in
  let mi_type =
    D.rank_band_fk rng ~ranks:mi_ranks ~rank_domain:n_title ~domain:30 ~bands:10
      ~noise:0.3
  in
  let mi =
    table ~name:"movie_info"
      [
        ("id", Value.TInt, D.serial n_mi);
        ("movie_id", Value.TInt, movie_ids mi_ranks);
        ("info_type_id", Value.TInt, mi_type);
        ( "info",
          Value.TStr,
          (* info text embeds the info type: a LIKE on info correlates
             perfectly with info_type_id, which PostgreSQL-style
             estimation multiplies as if independent *)
          Array.map
            (fun ty ->
              Value.Str
                (Printf.sprintf "it%d_w%d" (Value.as_int ty) (Rng.int rng 200)))
            mi_type );
      ]
  in

  List.iter
    (fun (tbl, pk) -> Catalog.add_table cat ~pk tbl)
    [
      (kt, "id"); (it, "id"); (rt, "id"); (ct, "id"); (k, "id"); (cn, "id");
      (n_tbl, "id"); (chn, "id"); (t, "id"); (mk, "id"); (mc, "id"); (ci, "id");
      (mi, "id");
    ];
  List.iter
    (fun (ft, fc, tt, tc) ->
      Catalog.add_fk cat ~from_table:ft ~from_column:fc ~to_table:tt ~to_column:tc)
    [
      ("title", "kind_id", "kind_type", "id");
      ("movie_keyword", "movie_id", "title", "id");
      ("movie_keyword", "keyword_id", "keyword", "id");
      ("movie_companies", "movie_id", "title", "id");
      ("movie_companies", "company_id", "company_name", "id");
      ("movie_companies", "company_type_id", "company_type", "id");
      ("cast_info", "movie_id", "title", "id");
      ("cast_info", "person_id", "name", "id");
      ("cast_info", "role_id", "role_type", "id");
      ("cast_info", "person_role_id", "char_name", "id");
      ("movie_info", "movie_id", "title", "id");
      ("movie_info", "info_type_id", "info_type", "id");
    ];
  cat

(* ------------------------------------------------------------------ *)
(* Witness-based query generation                                      *)
(* ------------------------------------------------------------------ *)

type fact = {
  table : string;
  alias : string;
  dims : (string * string * string * string) list;
      (* (fk column, dim table, dim alias, dim pk) *)
}

let facts =
  [
    {
      table = "movie_keyword";
      alias = "mk";
      dims = [ ("keyword_id", "keyword", "k", "id") ];
    };
    {
      table = "movie_companies";
      alias = "mc";
      dims =
        [
          ("company_id", "company_name", "cn", "id");
          ("company_type_id", "company_type", "ct", "id");
        ];
    };
    {
      table = "cast_info";
      alias = "ci";
      dims =
        [
          ("person_id", "name", "n", "id");
          ("role_id", "role_type", "rt", "id");
          ("person_role_id", "char_name", "chn", "id");
        ];
    };
    {
      table = "movie_info";
      alias = "mi";
      dims = [ ("info_type_id", "info_type", "it", "id") ];
    };
  ]

let col_pos (tbl : Table.t) name =
  match Schema.find_by_name tbl.Table.schema name with
  | Some p -> p
  | None -> invalid_arg ("Cinema.col_pos: " ^ name)

(* index: movie_id -> row ids of a fact table *)
let rows_by_movie (tbl : Table.t) =
  let pos = col_pos tbl "movie_id" in
  let h = Hashtbl.create 4096 in
  Table.iteri
    (fun i row ->
      let m = row.(pos) in
      Hashtbl.replace h m (i :: Option.value (Hashtbl.find_opt h m) ~default:[]))
    tbl;
  h

let str_prefix s =
  match String.index_opt s '_' with Some i -> String.sub s 0 (i + 1) | None -> s

(* A filter on a dimension (or on title) derived from the witness row so
   the witness survives it. The shapes mirror JOB: LIKE prefixes, equality
   on low-cardinality attributes, ranges on years, IN lists. *)
let dim_filter rng cat ~alias ~table ~witness_id =
  let tbl = Catalog.table cat table in
  let row = Table.row tbl (witness_id - 1) in
  (* serial pks: id i is row i-1 *)
  let v name = row.(col_pos tbl name) in
  match table with
  | "keyword" -> (
      let kw = Value.as_string (v "keyword") in
      match Rng.int rng 3 with
      | 0 -> [ Expr.Like (Expr.col alias "keyword", str_prefix kw ^ "%") ]
      | 1 -> [ Expr.Cmp (Expr.Eq, Expr.col alias "keyword", Expr.vstr kw) ]
      | _ ->
          [
            Expr.In_list
              ( Expr.col alias "keyword",
                [ Value.Str kw; Value.Str "hero_w1"; Value.Str "war_w2" ] );
          ])
  | "company_name" -> (
      let cc = Value.as_string (v "country_code") in
      match Rng.int rng 2 with
      | 0 -> [ Expr.Cmp (Expr.Eq, Expr.col alias "country_code", Expr.vstr cc) ]
      | _ ->
          [
            Expr.Cmp (Expr.Eq, Expr.col alias "country_code", Expr.vstr cc);
            Expr.Like (Expr.col alias "name", str_prefix (Value.as_string (v "name")) ^ "%");
          ])
  | "name" -> (
      match (v "gender", Rng.int rng 2) with
      | Value.Str g, 0 -> [ Expr.Cmp (Expr.Eq, Expr.col alias "gender", Expr.vstr g) ]
      | _ ->
          [ Expr.Like (Expr.col alias "name", str_prefix (Value.as_string (v "name")) ^ "%") ])
  | "char_name" ->
      [ Expr.Like (Expr.col alias "name", str_prefix (Value.as_string (v "name")) ^ "%") ]
  | "role_type" -> [ Expr.Cmp (Expr.Eq, Expr.col alias "role", Expr.Const (v "role")) ]
  | "company_type" -> [ Expr.Cmp (Expr.Eq, Expr.col alias "kind", Expr.Const (v "kind")) ]
  | "info_type" -> [ Expr.Cmp (Expr.Eq, Expr.col alias "info", Expr.Const (v "info")) ]
  | "kind_type" -> [ Expr.Cmp (Expr.Eq, Expr.col alias "kind", Expr.Const (v "kind")) ]
  | _ -> []

let title_filter rng cat ~witness_movie =
  let tbl = Catalog.table cat "title" in
  let row = Table.row tbl (witness_movie - 1) in
  let year = Value.as_int row.(col_pos tbl "production_year") in
  match Rng.int rng 3 with
  | 0 ->
      [
        Expr.Between
          (Expr.col "t" "production_year", Value.Int (year - 8), Value.Int (year + 8));
      ]
  | 1 -> [ Expr.Cmp (Expr.Ge, Expr.col "t" "production_year", Expr.vint (year - 20)) ]
  | _ ->
      [
        Expr.Between
          ( Expr.col "t" "production_year",
            Value.Int (year - 25),
            Value.Int (year + 25) );
        Expr.Like
          ( Expr.col "t" "title",
            str_prefix (Value.as_string row.(col_pos tbl "title")) ^ "%" );
      ]

(* fact-table filters on the witness row itself (mi.info LIKE ...) *)
let fact_filter ~alias ~table (witness_row : Value.t array) (tbl : Table.t) =
  match table with
  | "movie_info" ->
      let info = Value.as_string witness_row.(col_pos tbl "info") in
      [ Expr.Like (Expr.col alias "info", str_prefix info ^ "%") ]
  | _ -> []

let generate_one cat rng ~name ~movie_index =
  (* 1. choose the fact tables (inverse-star with ≥1, usually ≥2) *)
  let fact_pool = Array.of_list facts in
  Rng.shuffle rng fact_pool;
  let n_facts = 1 + Rng.int rng 3 + if Rng.bernoulli rng 0.55 then 1 else 0 in
  let chosen_facts = Array.to_list (Array.sub fact_pool 0 (min n_facts 4)) in
  (* 2. witness movie: one that appears in every chosen fact table *)
  let indexes =
    List.map (fun f -> (f, rows_by_movie (Catalog.table cat f.table))) chosen_facts
  in
  let movie =
    let candidates = movie_index in
    let rec search tries =
      if tries > 500 then None
      else
        let m = Value.Int (1 + Rng.int rng candidates) in
        if List.for_all (fun (_, h) -> Hashtbl.mem h m) indexes then Some m
        else search (tries + 1)
    in
    search 0
  in
  match movie with
  | None -> None
  | Some movie ->
      let witness_rows =
        List.map
          (fun (f, h) ->
            let tbl = Catalog.table cat f.table in
            let rid = List.hd (Hashtbl.find h movie) in
            (f, tbl, Table.row tbl rid))
          indexes
      in
      (* 3. relations: t + facts + a random subset of each fact's dims *)
      let rels = ref [ { Query.alias = "t"; table = "title" } ] in
      let preds = ref [] in
      let add_rel alias table = rels := { Query.alias = alias; table } :: !rels in
      let filters = ref [] in
      List.iter
        (fun (f, tbl, wrow) ->
          add_rel f.alias f.table;
          preds := Expr.eq (Expr.col f.alias "movie_id") (Expr.col "t" "id") :: !preds;
          if Rng.bernoulli rng 0.35 then
            filters := fact_filter ~alias:f.alias ~table:f.table wrow tbl @ !filters;
          List.iter
            (fun (fk_col, dim_table, dim_alias, dim_pk) ->
              let wv = wrow.(col_pos tbl fk_col) in
              let include_dim =
                (not (Value.is_null wv)) && Rng.bernoulli rng 0.65
              in
              if include_dim then begin
                add_rel dim_alias dim_table;
                preds :=
                  Expr.eq (Expr.col f.alias fk_col) (Expr.col dim_alias dim_pk)
                  :: !preds;
                if Rng.bernoulli rng 0.7 then
                  filters :=
                    dim_filter rng cat ~alias:dim_alias ~table:dim_table
                      ~witness_id:(Value.as_int wv)
                    @ !filters
              end)
            f.dims)
        witness_rows;
      (* optional kind_type dimension on title *)
      if Rng.bernoulli rng 0.3 then begin
        add_rel "kt" "kind_type";
        preds := Expr.eq (Expr.col "t" "kind_id") (Expr.col "kt" "id") :: !preds;
        let tbl = Catalog.table cat "title" in
        let kid = Value.as_int (Table.row tbl (Value.as_int movie - 1)).(col_pos tbl "kind_id") in
        filters :=
          dim_filter rng cat ~alias:"kt" ~table:"kind_type" ~witness_id:kid @ !filters
      end;
      (* redundant cycle predicate between two facts (JOB-style) *)
      (match witness_rows with
      | (f1, _, _) :: (f2, _, _) :: _ when Rng.bernoulli rng 0.4 ->
          preds :=
            Expr.eq (Expr.col f1.alias "movie_id") (Expr.col f2.alias "movie_id")
            :: !preds
      | _ -> ());
      if Rng.bernoulli rng 0.8 then
        filters := title_filter rng cat ~witness_movie:(Value.as_int movie) @ !filters;
      (* 4. output projection *)
      let output =
        [ { Expr.rel = "t"; name = "title" } ]
        @ List.filter_map
            (fun (r : Query.rel) ->
              match r.Query.alias with
              | "n" -> Some { Expr.rel = "n"; Expr.name = "name" }
              | "k" -> Some { Expr.rel = "k"; Expr.name = "keyword" }
              | "cn" -> Some { Expr.rel = "cn"; Expr.name = "name" }
              | _ -> None)
            !rels
      in
      Some (Query.make ~name ~output (List.rev !rels) (!preds @ !filters))

(* A candidate query is kept only if its true result is non-empty and not
   explosively large — JOB's 91 queries are curated the same way (all
   complete under PostgreSQL; empty-result queries are excluded). The
   check uses the weighted counter, so it is cheap even for queries whose
   *bad plans* would explode. *)
let acceptable_result_size = 500_000

let queries cat ~seed ~n =
  let rng = Rng.create seed in
  let n_title = Table.n_rows (Catalog.table cat "title") in
  let registry = Qs_stats.Stats_registry.create cat in
  let wcache = Qs_exec.Naive.make_cache () in
  let out = ref [] in
  let count = ref 0 in
  let attempts = ref 0 in
  while !count < n && !attempts < n * 40 do
    incr attempts;
    let name = Printf.sprintf "cinema_%d" (!count + 1) in
    match generate_one cat rng ~name ~movie_index:n_title with
    | Some q ->
        let frag = Qs_stats.Fragment.of_query registry q in
        let true_card = Qs_exec.Naive.count ~cache:wcache frag in
        if true_card > 0 && true_card <= acceptable_result_size then begin
          out := q :: !out;
          incr count
        end
    | None -> ()
  done;
  List.rev !out
