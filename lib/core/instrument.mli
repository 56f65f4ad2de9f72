(** Optimizer instrumentation: deriving the optimal configuration (§2).

    Each index request is answered with the structures making its optimal
    plan possible (§2.1, Lemmas 1–2); each view request with the requested
    sub-query materialized as a view plus a clustered index.  Because view
    matching spawns index requests over the view-tables on the next pass,
    the procedure iterates to a fixpoint. *)

module Query = Relax_sql.Query
module Index = Relax_physical.Index
module View = Relax_physical.View
module Config = Relax_physical.Config

(** Per-query distinct-request counts (Table 1). *)
type request_stats = {
  qid : string;
  index_requests : int;
  view_requests : int;
}

val dedup : 'a list -> 'a list
(** The list without repeats, each element at its first position: key
    columns for instrumentation's indexes and CTT's candidates. *)

val indexes_for_request :
  Relax_optimizer.Env.t -> Relax_optimizer.Request.t -> Index.t list
(** Optimal index candidates for one request: the seek-optimal covering
    index (keys = sargable columns by increasing selectivity, equalities
    first, at most one trailing non-equality; suffix = every other needed
    column) and, when an order is requested, the order-providing index
    (§2.1).  At most two. *)

val materialize_view :
  Relax_optimizer.Env.t -> Query.spjg -> (View.t * float * Index.t) option
(** A block as a view: the view, its cardinality estimate, and a
    clustered index keyed on its grouping columns (on its first output
    when it has none).  [None] only for a block with no output.  The one
    view builder of instrumentation and of the CTT baseline. *)

val view_for_request :
  Relax_optimizer.Env.t -> Query.spjg -> (View.t * float * Index.t) option
(** Materialize a view request ({!materialize_view}); [None] for
    single-table ungrouped blocks (index territory). *)

type result = {
  optimal : Config.t;  (** the optimal configuration (§2.1) *)
  stats : request_stats list;
  passes : int;
}

val optimal_configuration :
  Relax_catalog.Catalog.t ->
  base:Config.t ->
  ?views:bool ->
  ?max_passes:int ->
  Query.workload ->
  result
(** Intercept all requests during optimization and gather the optimal
    structures.  [base] holds structures present in any configuration;
    [views:false] gives the indexes-only tuning mode. *)
