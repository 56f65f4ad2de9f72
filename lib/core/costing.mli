(** Node costing (§3.3, §3.5): the one handle every cost of the search goes
    through.

    The handle holds the catalog, the what-if interface, the prepared
    workload, the domain pool, the what-if call ledger, the CBV memo, the
    base tables' heap sizes and the §3.3.2 bound memo.  The ledger, the
    per-slot decisions and the pseudo-slot sets live here and nowhere
    else: {!Ranking} spends the ledger through {!rank_plan} and {!sweep},
    and the search loop only asks for costed nodes ({!cost_node}) and, at
    the end, for honest re-costs ({!recost_exact}).

    Only queries whose plans read a structure a step removed are
    re-costed, and a partial sum already exceeding the best known cost
    aborts the evaluation (§3.5).  Everything here that reads or debits
    the ledger or the CBV memo runs on the main domain; the pool only
    re-optimizes. *)

module Query = Relax_sql.Query
module Config = Relax_physical.Config
module O = Relax_optimizer

(** Workload split into optimizable selects (including update select
    components) and update shells.  The indices of [selects_arr] are the
    plan slots of every {!node}. *)
type prepared = {
  selects_arr : (string * float * Query.select_query) array;
  slots : (string, int) Hashtbl.t;  (** qid → slot *)
  dmls : (float * Query.dml) list;
  has_updates : bool;
}

val prepare : Query.workload -> prepared

(** The slots of a node whose plan is bound-substituted; read it through
    {!is_pseudo}. *)
type slot_set

(** A configuration in the pool, with its evaluated plans and costs.
    Plans are held in a slot-indexed array (one slot per workload select,
    in {!prepared.selects_arr} order), not a string map: the evaluation
    and ranking loops walk every plan of every node each iteration, and
    the flat representation turns those walks into cache-friendly array
    scans with no per-step boxing.  Use {!plan_of} / {!is_pseudo} for
    qid-keyed access. *)
type node = private {
  id : int;
  config : Config.t;
  plans : O.Plan.t array;  (** slot-indexed *)
  slots : (string, int) Hashtbl.t;
      (** shared qid → slot table; never mutated after {!prepare} *)
  select_cost : float;
  shells : float array;
      (** the unweighted §3.6 shell cost of each update statement under
          [config], in {!prepared} [dmls] order *)
  shell_cost : float;  (** their weighted sum *)
  cost : float;  (** [select_cost] + [shell_cost] *)
  size : float;
  heap : float;  (** heap bytes of the base tables [config] leaves unclustered *)
  parent : int option;
  via : Transform.t list;
      (** the transformations the step from [parent] applied, in order;
          empty for a parentless node *)
  actual_penalty : float;
      (** realized (cost increase)/(space saved) when created *)
  pseudo : slot_set;
      (** the select slots whose plan carries a bound-substituted (not
          re-optimized) cost; always empty under the unbounded ledger *)
}

val plan_of : node -> qid:string -> O.Plan.t option
(** The node's evaluated plan for a select qid (O(1) slot lookup). *)

val is_pseudo : node -> qid:string -> bool
(** Is the qid's plan bound-substituted on this node (bounded ledgers
    only)? *)

(** The costing handle of one search. *)
type t

val create :
  Relax_catalog.Catalog.t ->
  whatif:O.Whatif.t ->
  pool:Relax_parallel.Pool.t ->
  base_config:Config.t ->
  space_budget:float ->
  shrink:bool ->
  whatif_budget:int option ->
  prepared ->
  t
(** A handle over a fresh ledger of [whatif_budget] calls (see
    {!Frugal.create}, which raises on a negative budget), empty CBV and
    bound memos, and node ids from 0.  Under a bounded ledger it first
    optimizes every select under [base_config] through [whatif]: those
    plans are valid in every configuration the search visits, the
    fallback of a slot the budget cannot pay for.  [shrink] is the §3.5
    shrinking variant of {!cost_node}. *)

val catalog : t -> Relax_catalog.Catalog.t
val prepared : t -> prepared
val pool : t -> Relax_parallel.Pool.t
val base_config : t -> Config.t
val space_budget : t -> float

val bound_memo : t -> Cost_bound.memo
(** The run's §3.3.2 bound memo; scoring tasks read it, and only the main
    domain writes it, between pool batches. *)

val heap_bytes : t -> Config.t -> float
(** Heap bytes of the base tables [config] leaves unclustered. *)

val price_shells :
  ?known:(int -> Query.dml -> float option) ->
  Relax_catalog.Catalog.t ->
  (float * Query.dml) list ->
  Config.t ->
  float array * float
(** The one pricing of update shells: the unweighted §3.6 shell cost of
    each weighted update statement under the configuration, in list
    order, and their weighted sum folded in that order.  [known k d] is
    statement [k]'s cost when the caller already has it. *)

val cbv : t -> Relax_physical.View.t -> float
(** The cost of computing a view from scratch under the base
    configuration, memoized.  Main domain only. *)

val estimate_view_rows : t -> Relax_physical.View.t -> float
(** A view's row estimate under the base configuration, for
    {!Transform.apply}. *)

val rank_plan : t -> Config.t -> slot:int -> O.Plan.t option
(** Re-optimize one slot under a configuration when the ledger's ranking
    share (see {!Frugal.rank_remaining}) is not yet spent, debiting the
    calls the what-if interface really made (a cache hit is free);
    [None] when the share is spent, and always on the unbounded
    ledger. *)

val sweep :
  t ->
  penalty:(payload:'a -> dt:float -> float) ->
  refine:('a Frugal.cand -> unit) ->
  'a Frugal.cand list ->
  unit
(** {!Frugal.sweep} over the handle's ledger. *)

val cost_node :
  t ->
  best:node option ->
  parent:node option ->
  steps:(Config.t * Transform.t) list ->
  Config.t ->
  node option
(** The one way a pool node is built and costed.  [parent] is [None] for
    the root and the warm-start seed, whose every plan is re-optimized.
    A child's [steps] are the transformations its step applied, each with
    the configuration it was applied to: the costing context covers the
    structures every one of them removed, so only the plans reading none
    of them are kept.  Under a bounded ledger the others are classified
    slot by slot — a warm cache entry, a patched plan that provably
    achieves the removal's lower bound, a paid re-optimization, or a
    bound cost that marks the slot pseudo — and only a node that fits
    the space budget and could beat [best] may pay.  The fold aborts
    with [None] as soon as the running total exceeds three times
    [best]'s cost (§3.5).  With [shrink] a child drops the structures no
    plan uses, and its update shells are priced on the configuration it
    keeps. *)

val recost_exact : t -> node -> node option
(** The endgame's honest re-cost: the node's pseudo slots re-optimized
    through the warm cache, all or nothing.  [None] when the node has no
    pseudo slot or the ledger cannot cover every cache miss; otherwise
    the node with exact plans and costs, its misses debited from the
    ledger and counted in [whatif.endgame_spent]. *)
