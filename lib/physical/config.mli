(** Physical configurations: a set of indexes plus a set of materialized
    views, each view carrying the row estimate computed when it was created
    (§3.3.1 uses the optimizer's cardinality module for this).

    Configurations are immutable values; the optimizer takes one as input —
    that {e is} the what-if interface: hypothetical structures are simulated
    simply by being present. *)

open Relax_sql.Types

type t

val empty : t
val of_indexes : Index.t list -> t

(** {1 Contents} *)

val indexes : t -> Index.t list
val index_set : t -> Index.Set.t
val views : t -> View.t list
val views_with_rows : t -> (View.t * float) list
val mem_index : t -> Index.t -> bool
val mem_view : t -> View.t -> bool
val find_view : t -> string -> (View.t * float) option
val indexes_on : t -> string -> Index.t list
(** The indexes over a relation (base table or view), in {!Index.compare}
    order.  Only the relation's run of the index set is walked: the order
    sorts an index by its key columns, and a column by its table first,
    so the indexes sharing an owner are contiguous. *)

val clustered_on : t -> string -> Index.t option
(** The clustered index over a relation, read from the same run; should
    a configuration hold several, the last in {!Index.compare} order. *)

val cardinal : t -> int
val is_empty : t -> bool

(** {1 Updates} *)

val add_index : t -> Index.t -> t
val add_view : t -> View.t -> rows:float -> t
val remove_index : t -> Index.t -> t

val remove_view : t -> View.t -> t
(** Also removes every index defined over the view (§3.1.2, Removal). *)

val union : t -> t -> t

(** {1 Identity} *)

val structure_names : t -> string list
val fingerprint : t -> string

val fingerprint_for_tables : t -> string list -> string
(** Fingerprint of the sub-configuration relevant to the given tables; two
    configurations agreeing on it yield identical plans for queries over
    those tables (the what-if memoization key). *)

(** {1 Sizing (§3.3.1)} *)

val column_width : Relax_catalog.Catalog.t -> t -> column -> float
val relation_rows : Relax_catalog.Catalog.t -> t -> string -> float
val relation_row_width : Relax_catalog.Catalog.t -> t -> string -> float
val index_bytes : Relax_catalog.Catalog.t -> t -> Index.t -> float

val bytes : Relax_catalog.Catalog.t -> t -> float
(** Sum of sizes of the configuration's structures. *)

val total_bytes : Relax_catalog.Catalog.t -> t -> float
(** {!bytes} plus base-table storage (a heap unless the configuration
    clusters the table): the quantity compared against the space budget.
    Promoting an index to clustered trades the heap for clustered leaves. *)

val pp : Format.formatter -> t -> unit
