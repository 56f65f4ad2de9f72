(** The public tuning API: instrument, then relax (the whole paper in one
    call).

    [tune] derives the optimal configuration by intercepting optimizer
    requests (§2), then runs the relaxation-based search (§3) until the
    space budget is met, the iteration cap is reached or time runs out.
    The result carries everything the evaluation section measures:
    improvement over the initial configuration, the optimal (unconstrained)
    configuration and its cost bound, the explored space/cost frontier
    (Figure 4), candidate-count traces (Figure 6) and request statistics
    (Table 1). *)

module Query = Relax_sql.Query
module Config = Relax_physical.Config
module Catalog = Relax_catalog.Catalog
module O = Relax_optimizer

type mode = Search.mode = Indexes_only | Indexes_and_views
type options = Search.options

let default_options ?(mode = Indexes_and_views) ~space_budget () : options =
  {
    mode;
    space_budget;
    base_config = Config.empty;
    max_iterations = 400;
    time_budget_s = None;
    transforms_per_iteration = 1;
    shrink_configurations = false;
    selection = Penalty;
    jobs = Relax_parallel.Pool.default_jobs ();
    whatif_budget = None;
    initial_config = None;
    whatif = None;
    on_iteration = None;
  }

type result = {
  workload : Query.workload;
  initial_cost : float;  (** workload cost under the base configuration *)
  initial_size : float;
  optimal : Config.t;
  optimal_cost : float;
  optimal_size : float;
  recommended : Config.t;
  recommended_cost : float;
  recommended_size : float;
  improvement : float;  (** §4's metric, in percent *)
  lower_bound : float;
      (** a cost no configuration can beat (tight iff no updates, §3.6) *)
  frontier : (float * float) list;
      (** (size, cost) of every configuration explored, for Figure 4 *)
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

(** The paper's quality metric:
    [improvement(CI, CR, W) = 100 (1 − cost(W, CR) / cost(W, CI))]. *)
let improvement ~initial ~recommended =
  100.0 *. (1.0 -. (recommended /. Float.max 1e-9 initial))

let workload_cost catalog config w =
  let whatif = O.Whatif.create catalog in
  O.Whatif.workload_cost whatif config w

(* The body of [tune] under an installed recorder.  Returns a closure so
   the metrics snapshot can be taken after the outermost span has closed. *)
let tune_spanned recorder (catalog : Catalog.t) (workload : Query.workload)
    (options : options) : Relax_obs.Metrics.snapshot -> result =
  let t0 = Relax_obs.Clock.now () in
  Relax_obs.Recorder.with_ambient recorder @@ fun () ->
  Relax_obs.Recorder.with_span recorder "tuner.tune" @@ fun () ->
  let views = options.mode = Indexes_and_views in
  let inst =
    Relax_obs.Recorder.with_span recorder "tuner.instrument" @@ fun () ->
    Instrument.optimal_configuration catalog ~base:options.base_config ~views
      workload
  in
  let outcome =
    Relax_obs.Recorder.with_span recorder "tuner.search" @@ fun () ->
    Search.run catalog ~workload ~initial:inst.optimal options
  in
  Relax_obs.Recorder.with_span recorder "tuner.report" @@ fun () ->
  (* Every report cost goes through the search's own what-if interface:
     its cache already holds every plan the search optimized (frugal runs
     even pre-costed the base configuration as their re-anchoring pass),
     so the report pays one per-entry pass over the base configuration at
     most — not three passes as a naive implementation would. *)
  let base_entries =
    O.Whatif.per_entry_costs outcome.whatif options.base_config workload
  in
  let initial_cost =
    List.fold_left (fun acc (_, c) -> acc +. c) 0.0 base_entries
  in
  let initial_size = Config.total_bytes catalog options.base_config in
  let recommended, recommended_size =
    match outcome.best with
    | Some n -> (n.Search.config, n.Search.size)
    | None ->
      (* nothing fit the budget: fall back to the base configuration *)
      (options.base_config, initial_size)
  in
  (* Per-entry weighted costs of a node's configuration, read straight off
     its evaluated plans — no optimizer calls. *)
  let entries_of_node (n : Search.node) =
    let env = O.Env.make catalog n.Search.config in
    List.map
      (fun (e : Query.entry) ->
        let cost =
          match e.stmt with
          | Query.Select _ -> (
            match Search.plan_of n ~qid:e.qid with
            | Some (p : O.Plan.t) -> p.cost
            | None -> invalid_arg ("entries_of_node: no plan for " ^ e.qid))
          | Query.Dml d ->
            let select_cost =
              match Search.plan_of n ~qid:(Query.select_qid e.qid) with
              | Some (p : O.Plan.t) -> p.cost
              | None -> 0.0
            in
            select_cost
            +. O.Update_cost.shell_cost env n.Search.config d
        in
        (e.qid, e.weight *. cost))
      workload
  in
  (* The recommended cost is read off the node's plans, except where a
     frugal run bound-costed a plan (a pseudo plan): those entries are
     re-derived from real what-if costs, through the search's warm cache.
     The unbounded ledger leaves no pseudo plan, so its runs read the node
     directly. *)
  let recommended_entries =
    match outcome.best with
    | None -> base_entries
    | Some n ->
      List.map2
        (fun (qid, c) (e : Query.entry) ->
          let is_pseudo =
            match e.stmt with
            | Query.Select _ -> Search.is_pseudo n ~qid:e.qid
            | Query.Dml _ -> Search.is_pseudo n ~qid:(Query.select_qid e.qid)
          in
          if is_pseudo then
            (qid, e.weight *. O.Whatif.entry_cost outcome.whatif recommended e)
          else (qid, c))
        (entries_of_node n) workload
  in
  let recommended_cost =
    List.fold_left (fun acc (_, c) -> acc +. c) 0.0 recommended_entries
  in
  let per_query =
    List.map2
      (fun (qid, before) (_, after) -> (qid, before, after))
      base_entries recommended_entries
  in
  (* §3.6 lower bound: optimal select cost plus base-configuration shell
     cost; with no updates this is simply the optimal configuration cost *)
  let lower_bound =
    let prepared = Search.prepare workload in
    if not prepared.has_updates then outcome.initial.cost
    else begin
      let base_env = O.Env.make catalog options.base_config in
      outcome.initial.select_cost
      +. List.fold_left
           (fun acc (w, d) ->
             acc
             +. w
                *. O.Update_cost.shell_cost base_env options.base_config d)
           0.0 prepared.dmls
    end
  in
  (* [metrics] is filled in only after the outermost span has closed, so
     the snapshot includes the "tuner.tune" timing itself. *)
  fun metrics ->
    {
      workload;
      initial_cost;
      initial_size;
      optimal = outcome.initial.config;
      optimal_cost = outcome.initial.cost;
      optimal_size = outcome.initial.size;
      recommended;
      recommended_cost;
      recommended_size;
      improvement =
        improvement ~initial:initial_cost ~recommended:recommended_cost;
      lower_bound;
      frontier = List.map (fun (s, c, _) -> (s, c)) outcome.explored;
      candidates_per_iteration = outcome.candidates_per_iteration;
      request_stats = inst.stats;
      per_query;
      best_trace = outcome.best_trace;
      iterations = outcome.iterations;
      metrics;
      elapsed_s = Relax_obs.Clock.elapsed_s ~since:t0;
    }

(** Tune [workload] against [catalog] under [options].  The run records
    into [obs] when given, else into the ambient recorder (e.g. one
    installed by a benchmark harness), else into a fresh private one;
    either way [result.metrics] is the recorder's final snapshot. *)
let tune ?obs catalog workload options : result =
  let recorder =
    match obs with
    | Some r -> r
    | None -> Relax_obs.Recorder.inherit_or_create ()
  in
  let finish = tune_spanned recorder catalog workload options in
  finish (Relax_obs.Recorder.snapshot recorder)
