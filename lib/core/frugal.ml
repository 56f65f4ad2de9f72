(** The budgeted costing tier (what-if frugality).

    The relaxation search's expensive primitive is the what-if optimizer
    call.  This module decides candidate rankings from cheap cost
    {e intervals} instead — [ΔT ∈ [lo, hi]] with [lo] from
    {!Cost_bound.query_lower_bound} and [hi] from {!Cost_bound.query_bound}
    — and spends an explicit per-tune budget of optimizer calls only on
    candidates whose interval straddles the decision threshold, widest
    penalty gap first, re-sweeping as refinements land (the Wii-style
    dynamic budget reallocation: calls not needed for one decision remain
    available for every later one).

    The sweep never decides {e wrongly} relative to the bounds: a candidate
    is accepted or rejected without a call only when its whole interval
    lies on one side of the threshold.  When the budget runs out with
    straddling candidates left, their ranking falls back to the interval's
    upper end — exactly the value the non-frugal ranking uses, so a
    zero-budget sweep reproduces the non-frugal order. *)

module Obs = Relax_obs

type interval = { lo : float; hi : float }

let point x = { lo = x; hi = x }
let width i = i.hi -. i.lo
let is_point i = Cost_bound.float_leq i.hi i.lo

(* Intersect interval [a] with [b], another interval on the same ΔT (a
   refinement intersects its freshly costed interval with the model
   bounds).  When the two conflict — empty intersection — [a] wins
   unchanged. *)
let tighten_with a ~advisory:b =
  let lo = Float.max a.lo b.lo and hi = Float.min a.hi b.hi in
  if Cost_bound.float_leq lo hi then { lo; hi } else a

(** One candidate in a sweep: an opaque payload and its mutable ΔT
    interval.  [refined] marks candidates whose interval was collapsed by
    actual what-if calls (budget debited); the sweep never refines a
    candidate twice. *)
type 'a cand = {
  payload : 'a;
  mutable ival : interval;
  mutable refined : bool;
}

let cand payload ival = { payload; ival; refined = false }

(** The per-tune call ledger. *)
type t = {
  budget : int;  (** optimizer calls the frugal run may spend in total *)
  rank_floor : int;
      (** the ranking tier may only spend the budget down to this level;
          what it leaves is reserved for node evaluation and the endgame
          re-ranking pass, where an exact cost protects a potential
          best-configuration update *)
  mutable spent : int;
}

let create ~budget =
  let budget = max 0 budget in
  {
    budget;
    (* the ranking tier gets at most a quarter of the budget: candidate
       order is already driven by the same upper bounds the non-frugal
       ranking uses, so refinement there is a second-order improvement,
       while evaluation exactness protects best-configuration updates *)
    rank_floor = budget - (budget / 4);
    spent = 0;
  }

let remaining t = max 0 (t.budget - t.spent)

(* Evaluation pays to collapse a ΔT interval only when its weighted width
   exceeds this fraction of the parent node's total cost.  Narrower
   intervals cannot meaningfully reorder later pool or candidate
   decisions — removal bounds track re-optimization within a fraction of
   a percent — so a call there is wasted even when the budget is idle. *)
let width_floor = 0.01

(* A node may spend budget only when its worst-case (all-bounds) total is
   within this factor of the incumbent best cost: anything further out
   cannot be mis-ranked into the recommendation by bound costing, so
   exactness there buys nothing.  Sized to the empirical drift of the
   loosest bounds (index merges, up to ~60% of a node's cost). *)
let contender_slack = 2.0

(* calls the ranking tier may still spend (its share above [rank_floor]) *)
let rank_remaining t = max 0 (remaining t - t.rank_floor)
let spent t = t.spent

let debit t n =
  if n > 0 then begin
    t.spent <- t.spent + n;
    Obs.Probe.count_n "whatif.budget_spent" n
  end

(* the decision threshold: the least certainly-achievable penalty *)
let threshold ~penalty cands =
  List.fold_left
    (fun acc c -> Float.min acc (penalty ~payload:c.payload ~dt:c.ival.hi))
    infinity cands

(** Resolve one node's candidate ranking.  [penalty] must be monotone
    non-decreasing in [dt] (every penalty formula in the search is: ΔT
    divided by a positive denominator, or ΔT plus a constant).  [refine]
    collapses a candidate's interval with actual optimizer calls, debiting
    the ledger through {!debit} and stopping early when {!remaining} hits
    zero.

    On return every candidate is either decided from bounds (interval
    entirely on one side of the final threshold — counted in the
    [whatif.bound_accepts]/[whatif.bound_rejects] probes), exactly refined, or left straddling
    because the budget ran dry (ranked by its interval's upper end, the
    non-frugal value). *)
let sweep t ~penalty ~refine (cands : 'a cand list) : unit =
  let straddling thr =
    List.filter
      (fun c ->
        (not c.refined)
        && Cost_bound.float_lt (penalty ~payload:c.payload ~dt:c.ival.lo) thr
        && Cost_bound.float_lt thr (penalty ~payload:c.payload ~dt:c.ival.hi))
      cands
  in
  let widest = function
    | [] -> None
    | l ->
      (* widest penalty gap first: the candidate whose decision a call
         would move the most; ties resolve to list order (deterministic) *)
      let gap c =
        penalty ~payload:c.payload ~dt:c.ival.hi
        -. penalty ~payload:c.payload ~dt:c.ival.lo
      in
      Some (List.fold_left (fun acc c -> if gap c > gap acc then c else acc) (List.hd l) l)
  in
  let rec go () =
    let thr = threshold ~penalty cands in
    match widest (straddling thr) with
    | None -> ()
    | Some c ->
      if rank_remaining t > 0 then begin
        refine c;
        c.refined <- true;
        go ()
      end
      (* ranking share dry: remaining straddlers rank by their upper ends *)
  in
  go ();
  (* count the decisions that never cost a call *)
  let thr = threshold ~penalty cands in
  List.iter
    (fun c ->
      if not c.refined then
        if Cost_bound.float_leq (penalty ~payload:c.payload ~dt:c.ival.hi) thr
        then Obs.Probe.count "whatif.bound_accepts"
        else if
          Cost_bound.float_leq thr (penalty ~payload:c.payload ~dt:c.ival.lo)
        then Obs.Probe.count "whatif.bound_rejects")
    cands
