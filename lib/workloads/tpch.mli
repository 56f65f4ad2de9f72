(** A TPC-H-like database and 22-query workload.

    The schema mirrors TPC-H's eight tables with realistic types,
    cardinality ratios and distributions; [scale] multiplies the SF-1 row
    counts (default 0.05).  The queries are SPJG analogues of the TPC-H
    set: same tables, join shapes, predicate styles, groupings and
    orderings, restricted to the paper's single-block dialect. *)

val catalog : ?scale:float -> ?seed:int -> unit -> Relax_catalog.Catalog.t

val join_graph :
  (Relax_sql.Types.column * Relax_sql.Types.column) list
(** The foreign-key join graph, for the random generators. *)

val query_texts : (string * string) list
(** The 22 templates as (id, SQL). *)

val workload : unit -> Relax_sql.Query.workload
(** All 22 queries, parsed. *)

val workload_subset : int list -> Relax_sql.Query.workload
(** Subset by 1-based query number, in query order.
    @raise Invalid_argument on a number outside 1–22. *)

val refresh_workload : ?scale:float -> unit -> Relax_sql.Query.workload
(** The dbgen-style refresh functions RF1/RF2 (batch order/lineitem inserts
    and age-out deletes), for update-mixed TPC-H tuning. *)
