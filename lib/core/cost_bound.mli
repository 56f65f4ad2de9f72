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

(** Context describing one relaxation step [C -> C'], of one or more
    transformations. *)
type context = {
  env' : O.Env.t;  (** environment under the relaxed configuration *)
  old_env : O.Env.t;  (** environment under the current configuration *)
  removed_indexes : Index.t list;
      (** the indexes the step's transformations take out that [C'] no
          longer holds ({!Transform.gone_indexes}, over every
          transformation, against [C']).  An input a transformation
          yields back is not listed, so a plan reading it is not
          affected *)
  removed_views : View.t list;
  view_merge : (View.merge_result * View.t * View.t) option;
      (** set when the step merges two views into one [C'] keeps *)
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
  new_config:Relax_physical.Config.t ->
  (Relax_physical.Config.t * Transform.t) list ->
  context
(** The context of one relaxation step, given each transformation the step
    applied with the configuration it was applied to, in order: [C] is the
    first configuration and [C'] = [new_config] the last one's result.
    It removes every view a transformation removed and every index a
    transformation took out that [C'] no longer holds, so a plan that
    reads any of them is affected, and it expands when any
    transformation adds structures.  The first view merge whose merged
    view [C'] still holds is the [view_merge]; the inputs of any other
    merge take the CBV bound.  [cbv] answers every view the step removes that an
    affected plan reads; the context only stores it.  Raises
    [Invalid_argument] on an empty list. *)

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
    sub-configuration, so a search keeps one table of the answers it has
    paid for.  Its key is {!Relax_optimizer.Access_path.selection_key}: a
    digest of the request key (a digest of the request) and the relation
    key (a digest of [r.rel]'s indexes under [C'] and, for a view, its
    row estimate).  The search computes each part once, through
    {!query_bound_walk} (below).

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

(** {2 Walks: each key part computed once}

    A search bounds the same node plans for every candidate of the node,
    and each candidate selects on the same few relations under its [C'].
    So each part of a memo key is computed where it is cheapest
    ({!Relax_optimizer.Access_path.compose_key} joins them):
    - the request key, once per access of a node plan that some
      candidate {!reselects}, on the main domain, into a {!walk};
    - the relation key, once per relation a candidate selects on, in its
      scoring task, by {!relation_keys}.

    A view-merge access is remapped onto the merged view inside the task,
    and its request is keyed there.  The composed key is
    {!Relax_optimizer.Access_path.selection_key}'s, so the memo's
    contract is the one above. *)

val reselects : context -> O.Plan.access_info -> bool
(** Does a bound under the context re-run access-path selection on the
    access's own request?  Only when the access reads a removed index of
    a relation that survives: an access on a removed view is remapped
    onto the merged view or takes the CBV bound. *)

type walk
(** A plan's accesses in the order {!query_bound} visits them (pre-order,
    inputs left to right), each with the output order its enclosing plan
    consumes folded into its request, and, for the accesses the walk was
    asked to key, that request's
    {!Relax_optimizer.Access_path.request_key}.  Which accesses have
    their order consumed is {!Relax_optimizer.Plan.inputs}'s rule, the
    one {!patched_plan} follows too.  It depends on the plan, the query's
    order and [keyed] alone. *)

val walk :
  ?order_by:(Relax_sql.Types.column * Relax_sql.Types.order_dir) list ->
  keyed:(O.Plan.access_info -> bool) ->
  O.Plan.t ->
  walk
(** The walk of a plan for the query's [order_by], as {!query_bound}
    takes it, with the request key of every access [keyed] holds for.  A
    bound through the memo keys any other access it selects on itself, so
    [keyed] changes what a bound costs, never what it returns. *)

type relation_keys
(** A context's relation keys. *)

val relation_keys : context -> relation_keys
(** The {!Relax_optimizer.Access_path.relation_key} under [env'] of each
    relation a bound under the context selects on, computed the first
    time it is asked for and kept for the later ones.  It holds a table,
    so one value serves one domain. *)

val query_bound_walk :
  memo -> misses -> relation_keys -> context -> walk -> float * misses
(** {!query_bound} of the walk's plan and order, with each access-path
    selection answered from the memo or from [misses] when either holds
    its key, and computed otherwise.  Returns the bound, bit for bit the
    one {!query_bound} gives, and [misses] extended with the selections
    it computed.  [access_path.requests] still counts every selection
    asked for; [access_path.memo_hits] counts those answered without
    computing.  Each memo key is composed from the walk's request key
    (computed in place for an access the walk did not key) and the
    context's relation key, so a walk and the relation keys can serve
    many bounds. *)

val patched_plan :
  ?order_by:(Relax_sql.Types.column * Relax_sql.Types.order_dir) list ->
  context ->
  O.Plan.t ->
  O.Plan.t option
(** Materialize the §3.3.2 patched plan: every affected access sub-plan is
    replaced by the best surviving access path under [C'] (consumed order
    folded into its request by {!Relax_optimizer.Plan.inputs}'s rule, as
    in a {!walk}; execution count preserved) and every
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
