(** The online guardrail: the differential checker's oracles, run once
    against a proposed DDL delta before it is "deployed".

    The offline {!Checker} replays every search iteration; a continuous
    tuner cannot afford that per re-tune, but it can afford one pass over
    the proposal itself: structural invariants, the packing-simulation
    size oracle for every structure the delta creates, the space budget,
    and an independent what-if recompute of the predicted window cost.  A
    configuration failing any of these never reaches deployment — the "no
    regression by construction" half of the safety story.

    The other half is post-deploy: predicted cost is a model value, and a
    model can be wrong about the live window.  {!drift_exceeded} is the
    rollback trigger — it compares realized per-unit-weight cost against
    the prediction with a configurable margin.  Costs are normalized per
    unit of window weight by the caller, so the comparison survives the
    window itself growing or decaying between re-tunes.

    Oracle computations run under a private recorder so validation never
    pollutes the daemon's own metrics or trace. *)

module Query = Relax_sql.Query
module Config = Relax_physical.Config
module O = Relax_optimizer
module Obs = Relax_obs

type verdict = {
  passed : bool;
  reasons : string list;
      (** one human-readable line per failed check; empty iff [passed] *)
  invariant_violations : Invariants.violation list;
  size_failures : Size_check.result list;
      (** structures whose closed-form size disagreed with the packing
          simulation beyond tolerance *)
  size_bytes : float;  (** total footprint of the proposal *)
  recomputed_cost : float;
      (** the independent what-if cost of the window under the proposal *)
  claimed_cost : float;
}

let validate ?(tolerances = Checker.default_tolerances) ?(cost_slack = 0.01)
    catalog ~(workload : Query.workload) ~space_budget ~claimed_cost
    (proposal : Config.t) : verdict =
  let quiet = Obs.Recorder.create () in
  Obs.Recorder.with_ambient quiet @@ fun () ->
  let reasons = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> reasons := s :: !reasons) fmt in
  (* structural invariants *)
  let invariant_violations = Invariants.check catalog proposal in
  List.iter
    (fun (v : Invariants.violation) ->
      fail "invariant %s: %s (%s)" v.rule v.subject v.detail)
    invariant_violations;
  (* size oracle: every index re-derived by packing simulation *)
  let size_failures =
    List.filter_map
      (fun i ->
        let r = Size_check.check_index catalog proposal i in
        if r.Size_check.rel_err > tolerances.Checker.size_tolerance then begin
          fail "size oracle: %s drifts %.1f%% (model %.0f vs simulated %.0f)"
            r.Size_check.structure
            (100.0 *. r.Size_check.rel_err)
            r.Size_check.predicted r.Size_check.simulated;
          Some r
        end
        else None)
      (Config.indexes proposal)
  in
  (* the space budget, allowing the size oracle's own tolerance as slack *)
  let size_bytes = Config.total_bytes catalog proposal in
  if size_bytes > space_budget *. (1.0 +. tolerances.Checker.size_tolerance)
  then
    fail "space budget: %.0f bytes exceeds budget %.0f" size_bytes space_budget;
  (* independent cost recompute: a fresh what-if interface, so no cached
     plan of the tuning run is trusted.  [cost_slack] is deliberately
     looser than [bound_epsilon]: the search's §3 plan
     patching carries costs over without full re-optimization, so a
     fraction of a percent of drift against exact recompute is expected —
     the check is after stale-cache/wrong-config mistakes, not float
     noise *)
  let whatif = O.Whatif.create catalog in
  let recomputed_cost = O.Whatif.workload_cost whatif proposal workload in
  let cost_gap =
    Float.abs (recomputed_cost -. claimed_cost)
    /. Float.max 1e-9 (Float.abs recomputed_cost)
  in
  if cost_gap > cost_slack then
    fail "predicted cost: claimed %.6g, independent recompute %.6g (%.2f%% apart)"
      claimed_cost recomputed_cost (100.0 *. cost_gap);
  {
    passed = !reasons = [];
    reasons = List.rev !reasons;
    invariant_violations;
    size_failures;
    size_bytes;
    recomputed_cost;
    claimed_cost;
  }

(** Post-deploy rollback trigger: has the realized per-unit-weight window
    cost drifted above the predicted one by more than [margin]
    (e.g. [0.15] = 15%)?  One-sided — a window running {e cheaper} than
    predicted is good news, not drift.  An absolute epsilon guards the
    near-zero regime so noise on a tiny prediction cannot fire it. *)
let drift_exceeded ~margin ~predicted ~realized =
  realized > (predicted *. (1.0 +. margin)) +. 1e-9

(** The drift ratio reported in daemon events: realized / predicted,
    [1.0] when the prediction is degenerate. *)
let drift_ratio ~predicted ~realized =
  if predicted > 1e-12 then realized /. predicted else 1.0

let verdict_json (v : verdict) : Obs.Json.t =
  Obs.Json.Obj
    [
      ("passed", Obs.Json.Bool v.passed);
      ("reasons", Obs.Json.List (List.map (fun s -> Obs.Json.String s) v.reasons));
      ("size_bytes", Obs.Json.Float v.size_bytes);
      ("recomputed_cost", Obs.Json.Float v.recomputed_cost);
      ("claimed_cost", Obs.Json.Float v.claimed_cost);
    ]
