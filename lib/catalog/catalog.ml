(** The system catalog: base table definitions plus per-column statistics.

    Statistics (row counts, histograms, widths, distinct counts) are all the
    optimizer ever reads — there are no stored rows, matching how what-if
    tuning tools operate.  A catalog holds base tables only and is never
    written after {!create}, so one value is safely shared across domains.
    Hypothetical views are configuration state: the optimizer's environment
    answers their statistics from the configuration, not from here. *)

open Relax_sql.Types

module String_map = Map.Make (String)

type column_def = {
  cname : string;
  ctype : data_type;
  dist : Distribution.t;
}

let column ?dist cname ctype =
  let dist =
    match dist with Some d -> d | None -> Distribution.default_for_type ctype
  in
  { cname; ctype; dist }

type table_def = {
  tname : string;
  rows : int;
  cols : column_def list;
}

let table tname ~rows cols = { tname; rows; cols }

(** Statistics for one column, as exposed to the optimizer. *)
type col_stats = {
  stype : data_type;
  width : float;  (** average stored width in bytes *)
  distinct : float;
  min_v : float;
  max_v : float;
  hist : Histogram.t;
}

(* Column statistics keyed by the column itself: lookups hash and compare
   its two strings, with no tuple built per lookup. *)
module Column_tbl = Hashtbl.Make (struct
  type t = column

  let equal (a : column) (b : column) =
    String.equal a.tbl b.tbl && String.equal a.col b.col

  let hash (c : column) = (String.hash c.tbl * 65599) + String.hash c.col
end)

(* A table with what [create] resolved for it. *)
type entry = {
  def : table_def;
  columns : column list;
  column_set : Column_set.t;
  row_width : float;
}

type t = {
  tables : entry String_map.t;
  stats : col_stats Column_tbl.t;  (** filled by [create] only *)
  seed : int;
}

let stats_of_column ~seed ~rows (c : column_def) =
  let hist = Histogram.build ~seed ~rows c.dist in
  let lo, hi = Distribution.support c.dist ~rows in
  {
    stype = c.ctype;
    width = width_of_type c.ctype;
    distinct = float_of_int (Distribution.distinct c.dist ~rows);
    min_v = lo;
    max_v = hi;
    hist;
  }

(** Build a catalog, constructing statistics for every column. *)
let create ?(seed = 42) (tables : table_def list) : t =
  let defs =
    List.fold_left
      (fun acc t ->
        if String_map.mem t.tname acc then
          invalid_arg ("Catalog.create: duplicate table " ^ t.tname)
        else String_map.add t.tname t acc)
      String_map.empty tables
  in
  let stats = Column_tbl.create 64 in
  List.iter
    (fun t ->
      List.iteri
        (fun i c ->
          let s = stats_of_column ~seed:(seed + Hashtbl.hash (t.tname, i)) ~rows:t.rows c in
          Column_tbl.replace stats (Column.make t.tname c.cname) s)
        t.cols)
    tables;
  let entry (td : table_def) =
    let columns = List.map (fun c -> Column.make td.tname c.cname) td.cols in
    (* summed in declaration order, each column's width read back from
       [stats] (a repeated column name reads its last declaration) *)
    let row_width =
      List.fold_left
        (fun acc c -> acc +. (Column_tbl.find stats c).width)
        0.0 columns
    in
    { def = td; columns; column_set = Column_set.of_list columns; row_width }
  in
  { tables = String_map.map entry defs; stats; seed }

let table_names t = String_map.fold (fun k _ acc -> k :: acc) t.tables [] |> List.rev

let entry_exn t name =
  match String_map.find_opt name t.tables with
  | Some e -> e
  | None -> invalid_arg ("Catalog: unknown table " ^ name)

let find_table t name =
  Option.map (fun e -> e.def) (String_map.find_opt name t.tables)

let table_exn t name = (entry_exn t name).def

let rows t name = float_of_int (table_exn t name).rows

let columns_of t name = (entry_exn t name).columns

let column_set t name = (entry_exn t name).column_set

let mem_table t name = String_map.mem name t.tables

let col_stats t (c : column) : col_stats =
  match Column_tbl.find_opt t.stats c with
  | Some s -> s
  | None ->
    invalid_arg
      (Printf.sprintf "Catalog: no statistics for %s.%s" c.tbl c.col)

let col_stats_opt t (c : column) = Column_tbl.find_opt t.stats c

let col_width t c = (col_stats t c).width
let col_distinct t c = (col_stats t c).distinct
let col_type t c = (col_stats t c).stype

let row_width t name = (entry_exn t name).row_width

(** A stable digest of the base schema and its statistics inputs: table
    names, row counts, column names/types/distributions and the
    statistics seed.  Two catalogs with equal fingerprints synthesize
    identical statistics, so what-if costs computed against one are valid
    against the other: the key the persistent what-if cache is guarded
    by. *)
let fingerprint t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "seed=%d;" t.seed);
  String_map.iter
    (fun name { def = td; _ } ->
      Buffer.add_string buf (Printf.sprintf "%s=%d[" name td.rows);
      List.iter
        (fun (c : column_def) ->
          Buffer.add_string buf
            (Fmt.str "%s:%a:%a;" c.cname pp_data_type c.ctype
               Distribution.pp c.dist))
        td.cols;
      Buffer.add_string buf "]")
    t.tables;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pp_table ppf (td : table_def) =
  Fmt.pf ppf "@[<v2>%s (%d rows):@," td.tname td.rows;
  List.iter
    (fun c -> Fmt.pf ppf "%s %a %a@," c.cname pp_data_type c.ctype Distribution.pp c.dist)
    td.cols;
  Fmt.pf ppf "@]"

let pp ppf t =
  String_map.iter (fun _ e -> Fmt.pf ppf "%a@." pp_table e.def) t.tables
