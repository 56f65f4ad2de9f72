(** The relaxation-based search (§3.2–§3.6, Figure 5).

    Starts from the optimal configuration of §2 and repeatedly relaxes
    configurations from a pool.  Line 6 of the template picks the
    transformation minimizing [penalty = ΔT / min(Space(C) − B, ΔS)] (with
    skyline filtering and the ΔT-only denominator once under budget for
    update workloads, §3.6); line 5 keeps relaxing the last configuration
    until it fits, then revisits the chain at the largest realized penalty,
    then falls back to the cheapest configuration with work left (§3.4).
    Only queries whose plans used a replaced structure are re-optimized,
    and shortcut evaluation aborts hopeless configurations early (§3.5). *)

module Query = Relax_sql.Query
module Config = Relax_physical.Config
module O = Relax_optimizer

(** Fixed-size bitset over workload slots (see {!prepared}): the flat
    representation of per-node pseudo-plan markers. *)
module Bitset : sig
  type t

  val create : int -> t
  val mem : t -> int -> bool
  val add : t -> int -> unit
  val is_empty : t -> bool
end

(** How line 6 picks among ranked candidates; [Penalty] is the paper's
    heuristic, the others exist for the ablation study. *)
type selection =
  | Penalty
  | Cost_greedy  (** minimize ΔT only *)
  | Space_greedy  (** maximize ΔS only *)
  | Random of int  (** uniformly random, seeded *)

(** Everything a differential checker needs to replay one iteration of the
    search against independent oracles (see [Relax_check]).  [it_applied]
    is the configuration right after applying [it_transform] to the parent
    — before the §3.5 multi-transformation extension and shrinking — so a
    checker can re-derive and compare it; [it_result] is the evaluated
    node's (configuration, cost, size) when the outcome is
    ["evaluated"]. *)
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
  it_result : (Config.t * float * float) option;
      (** (configuration, cost, size) of the evaluated node *)
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
          transformations before re-evaluating (1 = the paper's default) *)
  shrink_configurations : bool;
      (** §3.5 variant: drop structures unused by any query after each
          evaluation (may hurt quality: an unused structure can become
          useful after other structures are relaxed away); default off *)
  selection : selection;  (** {!Penalty} is the paper's *)
  jobs : int;
      (** worker domains for parallel candidate scoring and plan
          re-optimization; 1 = fully sequential.  The recommended
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

type candidate = {
  tr : Transform.t;
  penalty : float;
  delta_cost : float;  (** ΔT: upper-bound cost increase *)
  delta_space : float;  (** ΔS: space saved *)
}

(** A configuration in the pool, with its evaluated plans and costs.
    Plans are held in a slot-indexed array (one slot per workload select,
    in {!prepared.selects_arr} order) — the flat representation the
    scoring loops scan; use {!plan_of} / {!is_pseudo} for qid-keyed
    access. *)
type node = {
  id : int;
  config : Config.t;
  plans : O.Plan.t array;  (** slot-indexed *)
  slots : (string, int) Hashtbl.t;
      (** shared qid → slot table; never mutated after {!prepare} *)
  select_cost : float;
  shell_cost : float;
  cost : float;
  size : float;
  parent : int option;
  via : Transform.t option;
  actual_penalty : float;
  pseudo : Bitset.t;
      (** the select slots whose plan carries a bound-substituted (not
          re-optimized) cost; always empty under the unbounded ledger *)
  mutable untried : candidate list;
  mutable candidates_ready : bool;
}

(** Workload split into optimizable selects (including update select
    components) and update shells.  [selects_arr] is [selects] as an
    array; its indices are the plan slots of every {!node}. *)
type prepared = {
  selects : (string * float * Query.select_query) list;
  selects_arr : (string * float * Query.select_query) array;
  slots : (string, int) Hashtbl.t;  (** qid → slot *)
  dmls : (float * Query.dml) list;
  has_updates : bool;
}

val prepare : Query.workload -> prepared

val plan_of : node -> qid:string -> O.Plan.t option
(** The node's evaluated plan for a select qid (O(1) slot lookup). *)

val is_pseudo : node -> qid:string -> bool
(** Is the qid's plan bound-substituted on this node (bounded ledgers
    only)? *)

val skyline_filter : candidate list -> candidate list
(** §3.6 dominance filter: drop candidates dominated by another with
    [delta_cost] ≤ and [delta_space] ≥ (strict in at least one), keeping
    the input order.  A sort-and-sweep, O(n log n).  Exposed for tests. *)

val bound_memo_cap : int
(** Entry cap of a search's bound memo (see {!Cost_bound.memo}): one memo
    per {!run}, cleared when a merge finds it full. *)

val remember : cap:int -> Cost_bound.memo -> Cost_bound.misses -> unit
(** Merge a walk's misses into a bound memo, oldest first, clearing it
    whenever it holds [cap] entries.  The search calls it with
    {!bound_memo_cap} on its main domain between pool batches, in
    candidate order.  Exposed for tests. *)

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
