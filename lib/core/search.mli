(** The relaxation-based search (§3.2–§3.6, Figure 5): the loop.

    Starts from the optimal configuration of §2 and repeatedly relaxes
    configurations from a pool.  Line 6 of the template takes the head of
    the node's {!Ranking.rank_candidates} (the transformation minimizing
    [penalty = ΔT / min(Space(C) − B, ΔS)], with skyline filtering and the
    ΔT-only denominator once under budget for update workloads, §3.6);
    line 5 keeps relaxing the last configuration until it fits, then
    revisits the chain at the largest realized penalty, then falls back to
    the cheapest configuration with work left (§3.4).  Every node is
    costed through one {!Costing.t} handle (§3.5: only queries whose plans
    used a replaced structure are re-costed, and hopeless configurations
    abort early), which at the end re-costs the closest contenders
    honestly when a what-if budget left pseudo plans behind. *)

module Query = Relax_sql.Query
module Config = Relax_physical.Config
module O = Relax_optimizer

(** How line 6 picks among ranked candidates; [Penalty] is the paper's
    heuristic, the others exist for the ablation study. *)
type selection =
  | Penalty
  | Cost_greedy  (** minimize ΔT only *)
  | Space_greedy  (** maximize ΔS only *)
  | Random of int  (** uniformly random, seeded *)

(** A configuration in the pool, with its evaluated plans and costs (see
    {!Costing.node}). *)
type node = Costing.node

(** Everything a differential checker needs to replay one iteration of the
    search against independent oracles (see [Relax_check]).  [it_applied]
    is the configuration right after applying [it_transform] to the parent
    — before the §3.5 multi-transformation extension and shrinking — so a
    checker can re-derive and compare it; [it_result] is the evaluated
    node when the outcome is ["evaluated"]. *)
type iteration_report = {
  it_iteration : int;
  it_parent : Config.t;
  it_parent_cost : float;
  it_parent_size : float;
  it_transform : Transform.t;
  it_applied : Config.t option;
  it_predicted_delta_cost : float;  (** ΔT: the §3.3.2 upper bound *)
  it_predicted_delta_space : float;  (** ΔS: the §3.3.1 estimate *)
  it_penalty : float;
  it_outcome : string;
      (** [evaluated], [shortcut], [duplicate] or [inapplicable] *)
  it_result : node option;  (** the evaluated node *)
}

(** Which structures the §2 instrumentation proposes (see {!Tuner.tune}). *)
type mode = Indexes_only | Indexes_and_views

(** Tuning options, shared by {!run} and {!Tuner.tune}; build them with
    {!Tuner.default_options}. *)
type options = {
  mode : mode;
      (** the structures {!Tuner.tune}'s instrumentation proposes; {!run}
          relaxes whatever its [~initial] configuration holds *)
  space_budget : float;  (** B, bytes; [infinity] = unconstrained (§4.1) *)
  base_config : Config.t;
      (** constraint-enforcing structures present in every configuration:
          never transformed *)
  max_iterations : int;
  time_budget_s : float option;
  transforms_per_iteration : int;
      (** §3.5 variant: apply up to this many non-conflicting
          transformations before re-evaluating (1 = the paper's default).
          The node is costed against its final configuration: a plan
          that reads a structure any of the step's transformations
          removed is re-costed, whichever transformation removed it. *)
  shrink_configurations : bool;
      (** §3.5 variant: drop structures unused by any query after each
          evaluation (may hurt quality: an unused structure can become
          useful after other structures are relaxed away); default off.
          The node keeps the shrunk configuration and is costed against
          it: its plans read only structures it keeps, and its update
          shells are priced on it, not on the configuration before
          shrinking.  The §3.5 abort still compares the pre-shrink
          running total. *)
  selection : selection;  (** {!Penalty} is the paper's *)
  jobs : int;
      (** domains for parallel candidate ranking and plan
          re-optimization, the caller included; 1 = fully sequential.  The recommended
          configuration, costs, frontier and trace event counts are
          identical whatever the value. *)
  whatif_budget : int option;
      (** The spend policy of the one costing path: the what-if call
          ledger {!Frugal.create} builds from it.  [None] (default): the
          unbounded ledger — node evaluation re-optimizes every plan a
          relaxation touches (a cache hit or a call), candidates rank by
          their §3.3.2 upper bounds, and no plan is costed from bounds.
          [Some n] (n ≥ 0): a bounded ledger — candidate decisions come
          from ΔT bound intervals, at most [n] what-if optimizer calls
          are spent across the whole run, and node evaluation substitutes
          §3.3.2 bound costs for re-optimizations the budget did not
          cover; {!Tuner.tune} then re-derives the recommended cost from
          exact per-query what-if costs.  A negative [n] raises
          [Invalid_argument].  The ledger is read and debited on the main
          domain only, so results stay deterministic at any [jobs]. *)
  initial_config : Config.t option;
      (** warm start: a previously deployed configuration seeded into the
          pool as a second parentless node: evaluated up front (cache-warm
          when [whatif] is reused), installed as the incumbent best if it
          fits, arming shortcut pruning and the frugal contender gate from
          iteration zero.  The continuous tuner's incremental re-tune
          entry.  [None] (default): tune from scratch. *)
  whatif : O.Whatif.t option;
      (** an existing what-if interface to run against instead of a fresh
          one, sharing its plan cache across runs;
          [outcome.optimizer_calls]/[cache_hits] still report this run's
          deltas.  [None] (default): a private interface. *)
  on_iteration : (iteration_report -> unit) option;
      (** invoked once per iteration, after evaluation and trace emission,
          from the main domain (never from workers).  Used by the
          differential invariant checker ([Relax_check]). *)
}

type prepared = Costing.prepared

val prepare : Query.workload -> prepared
(** {!Costing.prepare}: the workload's selects, slot by slot, and its
    update shells. *)

type outcome = {
  initial : node;  (** the optimal configuration's node *)
  best : node option;  (** best configuration within the budget *)
  explored : (float * float * float) list;
      (** (size, cost, realized penalty) of every evaluated node *)
  best_trace : (int * float) list;
      (** (iteration, cost) each time a new best valid configuration was
          found: the tuner's anytime behaviour *)
  iterations : int;
  candidates_per_iteration : int list;  (** Figure 6 series *)
  optimizer_calls : int;  (** this run's calls (deltas under a shared
                              what-if interface) *)
  cache_hits : int;
  whatif : O.Whatif.t;
      (** the search's what-if interface, cache warm with every plan the
          run optimized; callers can re-cost configurations explored by
          the search (e.g. the recommended one) without paying fresh
          optimizer calls *)
}

val run :
  ?obs:Relax_obs.Recorder.t ->
  Relax_catalog.Catalog.t ->
  workload:Query.workload ->
  initial:Config.t ->
  options ->
  outcome
(** Run the relaxation search from an initial (optimal) configuration.
    When [obs] is given it is installed as the ambient
    {!Relax_obs.Recorder.t} for the duration of the search: spans and
    counters accumulate into its metrics and one JSONL event is emitted
    per iteration (plus one per actual what-if optimizer call) into its
    trace sink. *)
