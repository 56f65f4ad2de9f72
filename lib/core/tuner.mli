(** The public tuning API: instrument, then relax — the whole paper in one
    call. *)

module Query = Relax_sql.Query
module Config = Relax_physical.Config
module Catalog = Relax_catalog.Catalog

type mode = Search.mode = Indexes_only | Indexes_and_views

type options = Search.options
(** See {!Search.options}. *)

val default_options : ?mode:mode -> space_budget:float -> unit -> options
(** The paper's settings: [mode] defaults to [Indexes_and_views]; an empty
    base configuration, 400 iterations, no time limit, one transformation
    per iteration, no shrinking, {!Search.Penalty} selection, the
    unbounded what-if ledger (exact costing), no warm start, a private
    what-if interface and no hook.  [jobs] defaults to
    {!Relax_parallel.Pool.default_jobs} ([RELAX_JOBS] or the machine's
    domain count, capped at 8). *)

type result = {
  workload : Query.workload;
  initial_cost : float;  (** under the base configuration *)
  initial_size : float;
  optimal : Config.t;
  optimal_cost : float;
  optimal_size : float;
  recommended : Config.t;
  recommended_cost : float;
  recommended_size : float;
  improvement : float;  (** §4's metric, percent *)
  lower_bound : float;
      (** cost no configuration can beat (tight iff no updates, §3.6) *)
  frontier : (float * float) list;
      (** (size, cost) of every explored configuration (Figure 4) *)
  candidates_per_iteration : int list;  (** Figure 6 *)
  request_stats : Instrument.request_stats list;  (** Table 1 *)
  per_query : (string * float * float) list;
      (** per statement: (id, cost under base, cost under recommendation) *)
  best_trace : (int * float) list;
      (** (iteration, best valid cost): the anytime behaviour of the search *)
  iterations : int;
  metrics : Relax_obs.Metrics.snapshot;
      (** structured counters and span timings for the whole run: what-if
          calls, cache hits, plans patched vs. re-optimized, shortcut
          aborts, transformations generated/applied per kind, pool sizes *)
  elapsed_s : float;
}

val improvement : initial:float -> recommended:float -> float
(** [100 (1 − recommended/initial)]. *)

val workload_cost : Catalog.t -> Config.t -> Query.workload -> float

val tune :
  ?obs:Relax_obs.Recorder.t -> Catalog.t -> Query.workload -> options -> result
(** Derive the optimal configuration by intercepting optimizer requests
    (§2), then relax until the budget is met or iterations/time run out
    (§3).  When nothing fits the budget, the recommendation falls back to
    the base configuration.

    The run records into [obs] when given, else into the ambient
    {!Relax_obs.Recorder.t} if one is installed (e.g. by a benchmark
    harness), else into a fresh private recorder; [result.metrics] is the
    recorder's final snapshot either way.  Attach a {!Relax_obs.Trace.sink}
    to the recorder to capture the per-iteration JSONL trace. *)
