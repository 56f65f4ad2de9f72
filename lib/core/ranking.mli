(** Candidate ranking (§3.4, §3.6): which transformation line 6 of
    Figure 5 takes next.

    Every transformation of a node is applied and scored in the pool: its
    §3.3.1 space saving ΔS, measured only on the structures that changed,
    and its §3.3.2 cost increase ΔT as an interval, the lower and upper
    bounds over the plans that read a structure it removes, plus the
    update shells it re-prices (§3.6).  With updates, dominated
    candidates are dropped (skyline).  Candidates rank by
    [penalty = ΔT / min(Space(C) − B, ΔS)], or by ΔT alone once the node
    fits.  A bounded what-if ledger may refine the intervals that
    straddle the decision ({!Frugal.sweep}); the unbounded one ranks by
    upper bounds.  Everything that reads the ledger, the CBV memo or the
    bound memo for writing runs on the main domain, so a ranking is the
    same at any pool width. *)

(** A ranked candidate transformation of one configuration. *)
type candidate = {
  tr : Transform.t;
  penalty : float;
  delta_cost : float;  (** ΔT: upper-bound cost increase *)
  delta_space : float;  (** ΔS: space saved *)
}

val rank_candidates : Costing.t -> Costing.node -> candidate list
(** The node's candidates by increasing penalty, at most 256 of them. *)

val skyline_filter : candidate list -> candidate list
(** §3.6 dominance filter: drop candidates dominated by another with
    [delta_cost] ≤ and [delta_space] ≥ (strict in at least one), keeping
    the input order.  A sort-and-sweep, O(n log n).  Exposed for tests. *)

val bound_memo_cap : int
(** Entry cap of a search's bound memo (see {!Cost_bound.memo}): one memo
    per {!Costing.t}, cleared when a merge finds it full. *)

val remember : cap:int -> Cost_bound.memo -> Cost_bound.misses -> unit
(** Merge a walk's misses into a bound memo, oldest first, clearing it
    whenever it holds [cap] entries.  Ranking calls it with
    {!bound_memo_cap} on its main domain between pool batches, in
    candidate order.  Exposed for tests. *)
