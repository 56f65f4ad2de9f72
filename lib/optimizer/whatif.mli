(** The what-if costing layer: memoized optimization of workload statements
    under hypothetical configurations.

    A query's plan only depends on the sub-configuration relevant to its
    tables ({!Relax_physical.Config.fingerprint_for_tables}), so
    configurations agreeing there share one optimization call — the
    mechanism behind the paper's "only re-optimize queries that used a
    replaced structure".

    Domain-safe: one plan table under one mutex.  An optimization runs
    outside the lock; concurrent requests for the same uncached key are
    deduplicated: the first pays the optimizer call, later ones wait for
    it and count a cache hit.  The plan cache is the layer's only
    memory. *)

type t

val create : Relax_catalog.Catalog.t -> t

val stats : t -> int * int
(** (optimizer calls actually executed, cache hits). *)

val cached_plans : t -> int
(** Number of distinct plans currently memoized. *)

val plan_select :
  t -> Relax_physical.Config.t -> qid:string -> Relax_sql.Query.select_query ->
  Plan.t

val find_cached :
  t -> Relax_physical.Config.t -> qid:string -> tables:string list ->
  Plan.t option
(** The memoized plan for [qid] under [config], when present.  Never
    optimizes and updates no counter: the peek used by the frugal
    evaluation tier, which substitutes a bound-costed plan on a miss
    instead of paying an optimizer call. *)

val evict : t -> keep:(string -> bool) -> unit
(** Evict every cached plan whose owning workload qid fails [keep] (DML
    select components are evicted with their owner).  Called by the
    continuous-tuning daemon on window rotation so departed statements
    stop pinning cache entries. *)

val entry_cost : t -> Relax_physical.Config.t -> Relax_sql.Query.entry -> float
(** Plan cost for selects; select-component cost plus update-shell
    maintenance for DML (§3.6). *)

val workload_cost :
  t -> Relax_physical.Config.t -> Relax_sql.Query.workload -> float
(** Weighted total. *)

val per_entry_costs :
  t -> Relax_physical.Config.t -> Relax_sql.Query.workload ->
  (string * float) list
