(** The what-if call ledger and the budgeted ranking sweep (documented in
    the interface).

    The sweep never decides {e wrongly} relative to the bounds: a candidate
    is accepted or rejected without a call only when its whole interval
    lies on one side of the threshold.  When the budget runs out with
    straddling candidates left, their ranking falls back to the interval's
    upper end — exactly the unbounded ledger's value, so a zero-budget
    sweep reproduces the unbounded ranking order. *)

module Obs = Relax_obs

type interval = { lo : float; hi : float }

(* on conflict (empty intersection) [a] wins unchanged *)
let tighten_with a ~advisory:b =
  let lo = Float.max a.lo b.lo and hi = Float.min a.hi b.hi in
  if Cost_bound.float_leq lo hi then { lo; hi } else a

type 'a cand = {
  payload : 'a;
  mutable ival : interval;
  mutable refined : bool;
}

let cand payload ival = { payload; ival; refined = false }

type t = {
  budget : int option;
      (** optimizer calls the run may spend in total; [None]: unbounded *)
  rank_floor : int;
      (** the ranking tier may only spend the budget down to this level;
          what it leaves is reserved for node evaluation and the endgame
          re-ranking pass, where an exact cost protects a potential
          best-configuration update *)
  mutable spent : int;
}

let create budget =
  let rank_floor =
    match budget with
    | None -> 0
    | Some b when b < 0 -> invalid_arg "Frugal.create: negative budget"
    (* the ranking tier gets at most a quarter of the budget: candidate
       order is already driven by the same upper bounds the unbounded
       ledger ranks by, so refinement there is a second-order improvement,
       while evaluation exactness protects best-configuration updates *)
    | Some b -> b - (b / 4)
  in
  { budget; rank_floor; spent = 0 }

let bounded t = Option.is_some t.budget

let remaining t =
  match t.budget with None -> max_int | Some b -> max 0 (b - t.spent)

(* Narrower intervals cannot meaningfully reorder later pool or candidate
   decisions — removal bounds track re-optimization within a fraction of
   a percent — so a call there is wasted even when the budget is idle. *)
let width_floor = 0.01

(* Sized to the empirical drift of the loosest bounds (index merges, up to
   ~60% of a node's cost). *)
let contender_slack = 2.0

let rank_remaining t =
  if bounded t then max 0 (remaining t - t.rank_floor) else 0

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

(* Every penalty formula in the search is monotone in ΔT: ΔT divided by a
   positive denominator, or ΔT plus a constant.  Call-free decisions are
   counted in the [whatif.bound_accepts]/[whatif.bound_rejects] probes. *)
let sweep t ~penalty ~refine (cands : 'a cand list) : unit =
  if bounded t then begin
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
  end
