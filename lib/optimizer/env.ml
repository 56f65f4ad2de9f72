(** Optimization environment: the catalog paired with the configuration
    under which a query is optimized.

    This implements the what-if principle: a hypothetical view is pure
    metadata.  Its rows, widths and column statistics are answered on
    demand from the configuration's view and row estimate, with column
    statistics synthesized from the base tables the view projects; the
    catalog is never written. *)

open Relax_sql.Types
module Catalog = Relax_catalog.Catalog
module Config = Relax_physical.Config
module View = Relax_physical.View

type t = {
  cat : Catalog.t;
  config : Config.t;
}

(* Synthesize statistics for one view output column. *)
let stats_for_item cat ~view_rows (it : Relax_sql.Query.select_item) :
    Catalog.col_stats =
  match it with
  | Item_col base -> (
    match Catalog.col_stats_opt cat base with
    | Some s -> { s with distinct = Float.min s.distinct view_rows }
    | None ->
      {
        stype = Float;
        width = 8.0;
        distinct = view_rows;
        min_v = 0.0;
        max_v = 1.0;
        hist = Histogram_stub.unit_hist;
      })
  | Item_agg (Count, _) ->
    {
      stype = Int;
      width = 8.0;
      distinct = Float.max 1.0 (sqrt view_rows);
      min_v = 1.0;
      max_v = view_rows;
      hist = Histogram_stub.uniform 1.0 (Float.max 2.0 view_rows);
    }
  | Item_agg ((Sum | Min | Max | Avg), Some base) -> (
    match Catalog.col_stats_opt cat base with
    | Some s ->
      { s with width = 8.0; distinct = Float.min view_rows s.distinct }
    | None ->
      {
        stype = Float;
        width = 8.0;
        distinct = view_rows;
        min_v = 0.0;
        max_v = 1e9;
        hist = Histogram_stub.uniform 0.0 1e9;
      })
  | Item_agg ((Sum | Min | Max | Avg), None) ->
    {
      stype = Float;
      width = 8.0;
      distinct = view_rows;
      min_v = 0.0;
      max_v = 1e9;
      hist = Histogram_stub.uniform 0.0 1e9;
    }

let make cat (config : Config.t) : t = { cat; config }

let rows t rel = Config.relation_rows t.cat t.config rel

let col_stats_opt t (c : column) =
  match Catalog.col_stats_opt t.cat c with
  | Some _ as s -> s
  | None -> (
    match Config.find_view t.config c.tbl with
    | None -> None
    | Some (v, view_rows) ->
      Option.map (stats_for_item t.cat ~view_rows) (View.item_of_view_column v c))

let col_stats t (c : column) =
  match col_stats_opt t c with
  | Some s -> s
  | None ->
    invalid_arg (Printf.sprintf "Env: no statistics for %s.%s" c.tbl c.col)

(** A relation's columns: a view's outputs, or a base table's columns. *)
let columns_of t rel =
  match Config.find_view t.config rel with
  | Some (v, _) -> List.map (fun (_, it) -> View.column_of_item v it) (View.outputs v)
  | None -> Catalog.columns_of t.cat rel

let column_set t rel =
  match Config.find_view t.config rel with
  | Some _ -> Column_set.of_list (columns_of t rel)
  | None -> Catalog.column_set t.cat rel

let row_width t rel = Config.relation_row_width t.cat t.config rel

let width_of t c = Config.column_width t.cat t.config c

(** All indexes available on a relation under this environment. *)
let indexes_on t rel = Config.indexes_on t.config rel

let clustered_on t rel = Config.clustered_on t.config rel

(** Heap (or clustered) pages of a relation: what a full scan reads. *)
let table_pages t rel =
  match clustered_on t rel with
  | Some ci ->
    Relax_physical.Size_model.leaf_pages ~rows:(rows t rel)
      ~width_of:(width_of t) ~row_width:(row_width t rel) ci
  | None ->
    Relax_physical.Size_model.heap_pages ~rows:(rows t rel)
      ~row_width:(row_width t rel) ()
