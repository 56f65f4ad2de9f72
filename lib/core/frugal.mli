(** The what-if call ledger and the budgeted ranking sweep.

    A tune has one costing path; the ledger is its spend policy.  A
    bounded ledger holds a per-tune budget of what-if optimizer calls:
    candidate rankings are decided from cheap ΔT intervals
    ([{!Cost_bound.query_lower_bound}, {!Cost_bound.query_bound}]), and the
    budget is spent only on candidates whose interval straddles the
    decision threshold, widest penalty gap first, re-sweeping as
    refinements land.  Calls not needed for one decision remain available
    for every later one (dynamic budget reallocation).  With the budget
    dry, straddling candidates rank by the interval's upper end.  The
    unbounded ledger is the limit case: evaluation re-optimizes every
    miss, and the ranking has no share to spend, so every candidate ranks
    by its upper end. *)

type interval = { lo : float; hi : float }

val tighten_with : interval -> advisory:interval -> interval
(** Intersect an interval with another one on the same value (a
    refinement intersects its freshly costed interval with the model
    bounds); on conflict (empty intersection) the first wins unchanged. *)

(** One candidate in a sweep: an opaque payload and its mutable ΔT
    interval.  [refined] marks candidates already collapsed by actual
    what-if calls; the sweep never refines a candidate twice. *)
type 'a cand = {
  payload : 'a;
  mutable ival : interval;
  mutable refined : bool;
}

val cand : 'a -> interval -> 'a cand

(** The per-tune call ledger.  [debit] also
    feeds the [whatif.budget_spent] metrics counter; bound decisions feed
    [whatif.bound_accepts] / [whatif.bound_rejects]. *)
type t

val create : int option -> t
(** [create (Some n)]: a ledger of [n] calls; [create None]: the unbounded
    ledger.  Raises [Invalid_argument] when [n < 0]. *)

val bounded : t -> bool
(** [false] for the unbounded ledger, which re-optimizes every miss. *)

val remaining : t -> int
(** Calls left; [max_int] on the unbounded ledger. *)

val width_floor : float
(** Node evaluation pays to collapse a query's ΔT interval only when its
    weighted width exceeds this fraction of the parent node's cost;
    narrower intervals cannot meaningfully reorder later decisions. *)

val contender_slack : float
(** A node may spend budget only when its worst-case (all-bounds) total
    cost is within this factor of the incumbent best; nodes further out
    cannot be mis-ranked into the recommendation by bound costing. *)

val rank_remaining : t -> int
(** Calls the ranking tier may still spend.  The ranking tier only gets a
    quarter of the budget; the rest is reserved for node evaluation and
    the endgame re-ranking pass, where an exact cost protects a potential
    best-configuration update.  (Calls the ranking tier leaves unspent
    stay available to evaluation — the reservation is
    one-directional.)  Always 0 on the unbounded ledger. *)

val spent : t -> int
val debit : t -> int -> unit

val sweep :
  t ->
  penalty:(payload:'a -> dt:float -> float) ->
  refine:('a cand -> unit) ->
  'a cand list ->
  unit
(** Resolve one node's candidate ranking.  [penalty] must be monotone
    non-decreasing in [dt].  [refine] collapses an interval with optimizer
    calls, debiting the ledger and stopping early when {!remaining} hits
    zero.  On return every candidate is decided from bounds, exactly
    refined, or left straddling because the budget ran dry.  On the
    unbounded ledger it returns at once, counts nothing and never calls
    [refine]. *)
