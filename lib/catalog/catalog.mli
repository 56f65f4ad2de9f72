(** The system catalog: base table definitions plus per-column statistics.

    Statistics (row counts, histograms, widths, distinct counts) are all the
    optimizer ever reads — there are no stored rows, matching how what-if
    tuning tools operate.  A catalog holds base tables only and is never
    written after {!create}, so one value is safely shared across domains.
    Hypothetical views are configuration state: the optimizer's environment
    answers their statistics from the configuration, not from here. *)

open Relax_sql.Types

(** A column declaration: name, type, and the value distribution its
    statistics are synthesized from. *)
type column_def = {
  cname : string;
  ctype : data_type;
  dist : Distribution.t;
}

val column : ?dist:Distribution.t -> string -> data_type -> column_def
(** [dist] defaults to {!Distribution.default_for_type}. *)

type table_def = {
  tname : string;
  rows : int;
  cols : column_def list;
}

val table : string -> rows:int -> column_def list -> table_def

(** Statistics for one column, as exposed to the optimizer. *)
type col_stats = {
  stype : data_type;
  width : float;  (** average stored width in bytes *)
  distinct : float;
  min_v : float;
  max_v : float;
  hist : Histogram.t;
}

type t

val create : ?seed:int -> table_def list -> t
(** Build a catalog, constructing statistics for every column.  Everything
    the lookups below answer is resolved here, once: each column's
    statistics, keyed by the column itself (hashing and comparing its two
    strings, no tuple per lookup), and each table's column list, column
    set and row width (its columns' widths summed in declaration order).
    A lookup then costs one map or hash-table probe and builds nothing.
    @raise Invalid_argument on duplicate table names. *)

(** {1 Lookup} *)

val table_names : t -> string list
val find_table : t -> string -> table_def option
val table_exn : t -> string -> table_def
val mem_table : t -> string -> bool

val unknown_names : t -> Relax_sql.Query.statement -> string list
(** The names [stmt] uses that the catalog lacks: each unknown table as
    ["table T"], then each other unknown column as ["column T.C"].  Empty
    when every name resolves.  The one check of user-supplied statements,
    for [tune]'s workload files and the daemon's stream alike. *)

val rows : t -> string -> float
val columns_of : t -> string -> column list

val column_set : t -> string -> Column_set.t
(** {!columns_of} as a set, built once by {!create}: every plan that
    reads a whole row shares it. *)

val col_stats : t -> column -> col_stats
val col_stats_opt : t -> column -> col_stats option
val col_width : t -> column -> float
val col_distinct : t -> column -> float
val col_type : t -> column -> data_type
val row_width : t -> string -> float
(** The width {!create} resolved for the table.
    @raise Invalid_argument for an unknown table. *)

(** {1 Identity} *)

val fingerprint : t -> string
(** A stable hex digest of the base schema and its statistics inputs
    (table names, row counts, column definitions, statistics seed).
    Catalogs with equal fingerprints synthesize identical
    statistics, so persisted what-if costs keyed by this fingerprint are
    valid across processes. *)

(** {1 Printing} *)

val pp_table : Format.formatter -> table_def -> unit
val pp : Format.formatter -> t -> unit
