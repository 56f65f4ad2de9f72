(** Optimization environment: the catalog paired with the configuration
    under which a query is optimized.  A hypothetical view is pure metadata
    (the what-if principle): its statistics are answered on demand from the
    configuration's view and row estimate, and the catalog is never
    written. *)

open Relax_sql.Types
module Catalog = Relax_catalog.Catalog
module Config = Relax_physical.Config

type t = {
  cat : Catalog.t;  (** base tables only; views live in [config] *)
  config : Config.t;
}

val make : Catalog.t -> Config.t -> t
(** [{ cat; config }]: builds nothing, so it is free and safe on any
    domain. *)

val rows : t -> string -> float

val col_stats : t -> column -> Catalog.col_stats
(** Statistics of a base-table column, or of an output column of a view in
    the configuration (synthesized from the base columns it projects and
    the view's row estimate).
    @raise Invalid_argument for an unknown column. *)

val col_stats_opt : t -> column -> Catalog.col_stats option

val columns_of : t -> string -> column list
(** A relation's columns: the outputs of a view in the configuration, or
    a base table's columns. *)

val column_set : t -> string -> Column_set.t
(** {!columns_of} as a set: the catalog's, built once, for a base table;
    built on each call for a view. *)

val row_width : t -> string -> float
val width_of : t -> column -> float
val indexes_on : t -> string -> Relax_physical.Index.t list
val clustered_on : t -> string -> Relax_physical.Index.t option

val table_pages : t -> string -> float
(** Heap (or clustered) pages: what a full scan of the relation reads. *)
