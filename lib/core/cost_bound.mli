(** Execution-cost upper bounds for relaxed configurations (§3.3.2).

    Each access sub-plan that used a replaced structure is re-costed against
    the relaxed configuration by re-running access-path selection only (a
    component of the optimizer, not a full optimization call), adding
    compensating lookups, filters, sorts or group-bys.  Substituting the
    patched sub-plan into the otherwise unchanged plan yields a valid plan
    under the relaxed configuration — hence a true upper bound.

    Removed views are bounded by [CBV]: the cost of computing the view from
    scratch under the base configuration plus a scan over its result. *)

module Index = Relax_physical.Index
module View = Relax_physical.View
module O = Relax_optimizer

(** Context describing one candidate relaxation [C -> C']. *)
type context = {
  env' : O.Env.t;  (** environment under the relaxed configuration *)
  old_env : O.Env.t;  (** environment under the current configuration *)
  removed_indexes : Index.t list;
  removed_views : View.t list;
  view_merge : (View.merge_result * View.t * View.t) option;
      (** set when the transformation merges two views *)
  cbv : View.t -> float;
      (** cost of computing a view under the base configuration *)
  expands : bool;
      (** does the relaxation introduce replacement structures
          ({!Transform.adds_structures})?  Governs which lower-bound
          derivation {!query_lower_bound} may use *)
}

val make_context :
  Relax_catalog.Catalog.t ->
  cbv:(View.t -> float) ->
  old_config:Relax_physical.Config.t ->
  new_config:Relax_physical.Config.t ->
  Transform.t ->
  context
(** The context of relaxing [old_config] to [new_config] by one
    transformation.  [cbv] answers every view the transformation removes
    that an affected plan reads; the context only stores it. *)

val float_eq : ?eps:float -> float -> float -> bool
(** Tolerant equality for cost/size values: true when the two values agree
    within [eps] (default [1e-9]) relative to the larger magnitude, with an
    absolute floor of [eps] around zero.  Raw polymorphic comparison at
    type float in the costing layers is rejected by relax-lint rule L3;
    these helpers are the sanctioned replacements. *)

val float_leq : ?eps:float -> float -> float -> bool
(** [float_leq a b]: is [a <= b] up to the same tolerance?  ([a] may
    exceed [b] by accumulation noise without failing.) *)

val float_lt : ?eps:float -> float -> float -> bool
(** [float_lt a b]: is [a < b] by clearly more than the tolerance? *)

val affected : context -> O.Plan.access_info -> bool
val plan_affected : context -> O.Plan.t -> bool

val access_bound :
  ?consumed_order:(Relax_sql.Types.column * Relax_sql.Types.order_dir) list ->
  context ->
  O.Plan.access_info ->
  float
(** Upper bound on re-implementing one affected access under [C'], per
    execution.  [consumed_order] is the output order the enclosing plan
    consumes from this access without re-sorting (a merge join's input, a
    streaming aggregate's input, the query's ORDER BY): the replacement is
    required to deliver it too, or the patched plan would not be valid. *)

val removed_view_bound : context -> O.Plan.access_info -> View.t -> float
(** The CBV bound for an access whose view the relaxation removes: compute
    the view from scratch under the base configuration, scan and filter its
    result, and sort only the accessed cardinality when the request is
    ordered.  Exposed for the differential checker and regression tests. *)

val query_bound :
  ?order_by:(Relax_sql.Types.column * Relax_sql.Types.order_dir) list ->
  context ->
  O.Plan.t ->
  float
(** Upper bound on the whole query's cost under [C']: patch every affected
    access, keep the rest of the plan.  Each per-access delta is clamped at
    zero, so the result is never below [plan.cost] — a cheaper access path
    found under [C'] cannot drag the bound below the cost of a valid plan.
    [order_by] is the query's required output order; when an access (not a
    Sort operator) delivers it, its replacement must preserve it. *)

(** {1 The bound memo}

    {!query_bound} re-runs access-path selection under [C'] for every
    access a relaxation touches, and a search asks the same selections
    again and again: most repeat one an earlier ranking already made.  A
    selection's cost and rows depend only on the request and [r.rel]'s
    sub-configuration ({!Relax_optimizer.Access_path.selection_key}
    digests both), so a search keeps one table of the answers it has
    paid for.

    The table is written only by the search, on its main domain, between
    pool batches (see [Search]).  This module only reads it: a bound
    computed through the memo returns the selections it had to compute
    as {!misses}, which the search merges when the batch is done.  Every
    scoring task of one batch therefore sees the same table, and every
    count is the same whatever the parallelism. *)

type selection = { cost : float; rows : float }
(** What a bound uses of one access-path selection. *)

type memo = (string, selection) Hashtbl.t
(** Selection key to answer. *)

type misses = (string * selection) list
(** Selections a walk computed that its memo did not hold, newest
    first. *)

val query_bound_memo :
  memo ->
  misses ->
  ?order_by:(Relax_sql.Types.column * Relax_sql.Types.order_dir) list ->
  context ->
  O.Plan.t ->
  float * misses
(** {!query_bound}, with each access-path selection answered from the
    memo or from [misses] when either holds its key, and computed
    otherwise.  Returns the bound, bit for bit the one {!query_bound}
    gives, and [misses] extended with the selections it computed.
    [access_path.requests] still counts every selection asked for;
    [access_path.memo_hits] counts those answered without computing.
    {!query_bound} is this function with no memo and no misses. *)

val patched_plan :
  ?order_by:(Relax_sql.Types.column * Relax_sql.Types.order_dir) list ->
  context ->
  O.Plan.t ->
  O.Plan.t option
(** Materialize the §3.3.2 patched plan: every affected access sub-plan is
    replaced by the best surviving access path under [C'] (consumed order
    folded into its request, execution count preserved) and every
    ancestor's cumulative cost absorbs the clamped per-access delta, so
    the result's top-level cost equals {!query_bound}.  The result is a
    valid plan under [C'] with real accesses, so later affected-tests and
    bounds computed from it stay meaningful — this is what the frugal tier
    stores in place of a re-optimization it did not pay for.  [None] when
    an affected access cannot be re-implemented as an access path (removed
    or merged views: their compensation is a from-scratch view
    computation, not a plan). *)

val query_lower_bound :
  ?order_by:(Relax_sql.Types.column * Relax_sql.Types.order_dir) list ->
  context ->
  O.Plan.t ->
  float
(** Lower bound on the query's re-optimized cost under [C'] — the other
    side of the frugal costing interval ([query_lower_bound] ≤ optimizer ≤
    {!query_bound}).  For pure removals ([expands = false]) this is the
    old plan's cost: removal shrinks the plan space, so the optimum cannot
    get cheaper.  With replacement structures ([expands = true]) the model
    makes no claim and the bound is 0 — any floor assembled from the old
    plan's operators can be beaten by a restructured plan (order deleting
    a Sort and flipping the join method at once), and nothing raises it:
    an expanding relaxation's interval keeps its 0 lower end until a
    budgeted optimizer call collapses it.  [order_by] is ignored (the
    bound does not depend on output order). *)
