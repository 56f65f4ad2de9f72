(** Query and workload representation: single-block SPJG queries (the
    paper's query and view-definition language), update statements, and
    weighted workloads. *)

open Types

(** Aggregate functions allowed in SPJG select lists. *)
type agg_fn = Count | Sum | Min | Max | Avg

val pp_agg_fn : Format.formatter -> agg_fn -> unit

(** An output item: a base column or an aggregate over one
    ([Item_agg (Count, None)] is a count-star). *)
type select_item = Item_col of column | Item_agg of agg_fn * column option

val item_columns : select_item -> Column_set.t
val pp_select_item : Format.formatter -> select_item -> unit

(** A single-block SPJG query: the 6-tuple (S, F, J, R, O, G) of §3.1.2. *)
type spjg = {
  select : select_item list;  (** S *)
  tables : string list;  (** F: sorted, duplicate-free *)
  joins : Predicate.join list;  (** J *)
  ranges : Predicate.range list;  (** R *)
  others : Expr.t list;  (** O *)
  group_by : column list;  (** G *)
}

val make_spjg :
  select:select_item list ->
  tables:string list ->
  ?joins:Predicate.join list ->
  ?ranges:Predicate.range list ->
  ?others:Expr.t list ->
  ?group_by:column list ->
  unit ->
  spjg
(** Normalizes: sorts and dedups tables, intersects same-column ranges. *)

val has_aggregates : spjg -> bool
val spjg_columns : spjg -> Column_set.t
val spjg_columns_of_table : spjg -> string -> Column_set.t

(** A full select statement: an SPJG block plus a required output order. *)
type select_query = {
  body : spjg;
  order_by : (column * order_dir) list;
}

(** Update statements, in the shape §3.6 wants.  [Insert] models a batch of
    [rows] insertions. *)
type dml =
  | Update of {
      table : string;
      assignments : (string * Expr.t) list;
      ranges : Predicate.range list;
      others : Expr.t list;
    }
  | Insert of { table : string; rows : int }
  | Delete of {
      table : string;
      ranges : Predicate.range list;
      others : Expr.t list;
    }

val dml_table : dml -> string

type statement = Select of select_query | Dml of dml

(** A workload entry: a statement with an identifier and frequency weight. *)
type entry = { qid : string; weight : float; stmt : statement }

type workload = entry list

val entry : ?weight:float -> string -> statement -> entry
val dml_entries : workload -> (entry * dml) list
val has_updates : workload -> bool
val statement_tables : statement -> string list

val column_equiv : Predicate.join list -> column -> column -> bool
(** Equivalence of columns under a set of equi-join predicates (union-find
    over the join graph): the relation behind every "modulo column
    equivalence" test in view matching. *)

val select_qid : string -> string
(** The qid under which a DML entry's select component is planned and
    cached.  All costing layers (what-if cache keys, frugal-tier
    lookups, per-node plan maps) derive the component qid through this
    one helper so the caches agree. *)

val base_qid : string -> string
(** Inverse of {!select_qid}: the workload entry behind a planning qid,
    whether or not it carries the select-component suffix. *)

val split_update : dml -> select_query option * dml
(** Split an update statement into its pure select component and an update
    shell (§3.6): [UPDATE R SET a=b+1 WHERE a<10] reads as
    [SELECT b+1 FROM R WHERE a<10] plus a shell whose cost is the index
    maintenance.  The select component is [None] for inserts. *)

val plannable_selects : workload -> (string * float * select_query) list
(** [(qid, weight, select)] for every statement the optimizer plans, in
    workload order: each select under its own qid, and each update's
    select component under its {!select_qid}.  Inserts are skipped. *)

val updated_columns : dml -> Column_set.t
(** Columns assigned by an UPDATE (empty for insert/delete, which maintain
    every index on the table). *)
