(** Tests for the budgeted costing tier (lib/core/frugal.ml): the sweep's
    decision rules, the ΔT interval's two-sided soundness over TPC-H
    relaxations, the §3.3.2 patched plan, and end-to-end budgeted tuning
    runs (zero budget, determinism across [jobs], honest reporting). *)

module Query = Relax_sql.Query
module Config = Relax_physical.Config
module View = Relax_physical.View
module O = Relax_optimizer
module T = Relax_tuner
module W = Relax_workloads

(* --- interval algebra ----------------------------------------------------- *)

let test_tighten_with () =
  let open T.Frugal in
  let chk name (got : interval) lo hi =
    Alcotest.(check (pair (float 1e-9) (float 1e-9)))
      name (lo, hi) (got.lo, got.hi)
  in
  let a = { lo = 1.0; hi = 5.0 } in
  chk "overlap shrinks" (tighten_with a ~advisory:{ lo = 2.0; hi = 4.0 }) 2.0 4.0;
  chk "partial overlap clips"
    (tighten_with a ~advisory:{ lo = 4.5; hi = 10.0 })
    4.5 5.0;
  (* a conflicting advisory (empty intersection) must not corrupt the
     checked interval *)
  chk "conflict keeps checked interval"
    (tighten_with a ~advisory:{ lo = 6.0; hi = 7.0 })
    1.0 5.0;
  Alcotest.(check bool) "point is a point" true (is_point (point 3.0));
  Alcotest.(check bool) "wide is not a point" false (is_point a);
  Alcotest.(check (float 1e-9)) "width" 4.0 (width a)

(* --- sweep decision rules -------------------------------------------------- *)

let penalty ~payload:_ ~dt = dt

let named name (m : Relax_obs.Metrics.snapshot) =
  Option.value ~default:0 (List.assoc_opt name m.named_counters)

(* run one sweep and return its call-free decisions as the
   [whatif.bound_accepts] / [whatif.bound_rejects] counters record them *)
let counted_sweep t ~refine cands =
  let obs = Relax_obs.Recorder.create () in
  Relax_obs.Recorder.with_ambient obs (fun () ->
      T.Frugal.sweep t ~penalty ~refine cands);
  let m = Relax_obs.Recorder.snapshot obs in
  (named "whatif.bound_accepts" m, named "whatif.bound_rejects" m)

let test_sweep_bounds_decide () =
  (* intervals entirely on one side of the threshold are decided without a
     single call, even with a zero budget *)
  let open T.Frugal in
  let t = create ~budget:0 in
  let a = cand "a" { lo = 1.0; hi = 2.0 } in
  let b = cand "b" { lo = 10.0; hi = 20.0 } in
  let accepts, rejects =
    counted_sweep t
      ~refine:(fun _ -> Alcotest.fail "refine with zero budget")
      [ a; b ]
  in
  Alcotest.(check int) "nothing spent" 0 (spent t);
  Alcotest.(check int) "one bound accept" 1 accepts;
  Alcotest.(check int) "one bound reject" 1 rejects

let test_sweep_refines_widest_first () =
  let open T.Frugal in
  let t = create ~budget:8 in
  let a = cand "a" { lo = 0.0; hi = 10.0 } in
  let b = cand "b" { lo = 2.0; hi = 6.0 } in
  (* c's upper end sets the threshold (5.0) and never straddles it *)
  let c = cand "c" { lo = 4.0; hi = 5.0 } in
  let order = ref [] in
  let refine cd =
    order := cd.payload :: !order;
    debit t 1;
    cd.ival <- point (match cd.payload with "a" -> 3.0 | _ -> 4.0)
  in
  let accepts, rejects = counted_sweep t ~refine [ a; b; c ] in
  Alcotest.(check (list string))
    "widest penalty gap first" [ "a"; "b" ] (List.rev !order);
  Alcotest.(check int) "two calls spent" 2 (spent t);
  (* after refinement the threshold is 3.0 (a's exact value); c's whole
     interval sits above it *)
  Alcotest.(check int) "c rejected from bounds" 1 rejects;
  Alcotest.(check int) "no bound accepts" 0 accepts

let test_sweep_budget_dry () =
  (* the ranking tier only gets a quarter of the budget; once that share is
     gone, remaining straddlers are left un-refined (they rank by their
     upper ends) rather than over-spending *)
  let open T.Frugal in
  let t = create ~budget:4 in
  Alcotest.(check int) "ranking share is a quarter" 1 (rank_remaining t);
  let a = cand "a" { lo = 0.0; hi = 10.0 } in
  let b = cand "b" { lo = 1.0; hi = 9.0 } in
  let c = cand "c" { lo = 2.0; hi = 8.5 } in
  let refine cd =
    debit t 1;
    cd.ival <- point 7.0
  in
  let accepts, rejects = counted_sweep t ~refine [ a; b; c ] in
  Alcotest.(check int) "exactly the ranking share spent" 1 (spent t);
  Alcotest.(check bool) "widest refined" true a.refined;
  Alcotest.(check bool) "others left straddling" false (b.refined || c.refined);
  Alcotest.(check int) "straddlers not miscounted" 0 (accepts + rejects)

(* --- interval soundness over TPC-H relaxations ----------------------------- *)

let tpch =
  lazy
    (let cat = W.Tpch.catalog ~scale:0.01 () in
     let w = W.Tpch.workload_subset [ 1; 3; 6; 10; 14 ] in
     let inst = T.Instrument.optimal_configuration cat ~base:Config.empty w in
     let prepared = T.Search.prepare w in
     let whatif = O.Whatif.create cat in
     let plans =
       List.map
         (fun (qid, _, sq) ->
           (qid, sq, O.Whatif.plan_select whatif inst.optimal ~qid sq))
         prepared.selects
     in
     let transforms = Array.of_list (T.Transform.enumerate inst.optimal) in
     (cat, inst.optimal, whatif, Array.of_list plans, transforms))

let bound_context cat config config' tr =
  T.Cost_bound.make_context cat
    ~cbv:(fun v ->
      (O.Optimizer.optimize cat Config.empty
         { Query.body = View.definition v; order_by = [] })
        .cost)
    ~old_config:config ~new_config:config' tr

(* the frugal tier's central claim: for any relaxation of the TPC-H
   optimal configuration, the re-optimized cost lands inside the cheap
   interval [query_lower_bound, query_bound] *)
let prop_interval_sound_tpch =
  QCheck.Test.make
    ~name:"lower bound <= re-optimized cost <= upper bound (TPC-H)" ~count:120
    (QCheck.make QCheck.Gen.(pair (int_bound 10_000) (int_bound 10_000)))
    (fun (ti, qi) ->
      let cat, optimal, whatif, plans, transforms = Lazy.force tpch in
      if Array.length transforms = 0 then true
      else begin
        let tr = transforms.(ti mod Array.length transforms) in
        let qid, sq, plan = plans.(qi mod Array.length plans) in
        let est v =
          O.Cardinality.spjg (O.Env.make cat Config.empty) (View.definition v)
        in
        match T.Transform.apply ~estimate_rows:est optimal tr with
        | None -> true
        | Some config' ->
          let ctx = bound_context cat optimal config' tr in
          if not (T.Cost_bound.plan_affected ctx plan) then true
          else begin
            let hi =
              T.Cost_bound.query_bound ~order_by:sq.Query.order_by ctx plan
            in
            let lo = T.Cost_bound.query_lower_bound ctx plan in
            let actual =
              (O.Whatif.plan_select whatif config' ~qid sq).O.Plan.cost
            in
            let tol = 1e-6 *. Float.max 1.0 actual in
            lo <= actual +. tol && hi >= actual -. tol && lo <= hi +. tol
          end
      end)

(* the §3.3.2 patched plan is the bound made concrete: its top-level cost
   equals query_bound, and it is a plan under C' — no affected access
   survives the patch *)
let prop_patched_plan_matches_bound =
  QCheck.Test.make ~name:"patched plan realizes query_bound (TPC-H)"
    ~count:120
    (QCheck.make QCheck.Gen.(pair (int_bound 10_000) (int_bound 10_000)))
    (fun (ti, qi) ->
      let cat, optimal, _, plans, transforms = Lazy.force tpch in
      if Array.length transforms = 0 then true
      else begin
        let tr = transforms.(ti mod Array.length transforms) in
        let _, sq, plan = plans.(qi mod Array.length plans) in
        let est v =
          O.Cardinality.spjg (O.Env.make cat Config.empty) (View.definition v)
        in
        match T.Transform.apply ~estimate_rows:est optimal tr with
        | None -> true
        | Some config' ->
          let ctx = bound_context cat optimal config' tr in
          if not (T.Cost_bound.plan_affected ctx plan) then true
          else begin
            match
              T.Cost_bound.patched_plan ~order_by:sq.Query.order_by ctx plan
            with
            | None ->
              (* only removed/merged views are unpatchable *)
              ctx.removed_views <> [] || ctx.view_merge <> None
            | Some p ->
              let bound =
                T.Cost_bound.query_bound ~order_by:sq.Query.order_by ctx plan
              in
              T.Cost_bound.float_eq ~eps:1e-6 p.O.Plan.cost bound
              && not (T.Cost_bound.plan_affected ctx p)
          end
      end)

(* --- end-to-end budgeted tuning runs --------------------------------------- *)

let tune_tpch ?(nums = [ 1; 3; 6 ]) ?(iters = 40) ?(jobs = 1) ~whatif_budget ()
    =
  let cat = W.Tpch.catalog ~scale:0.01 () in
  let w = W.Tpch.workload_subset nums in
  let space = Config.total_bytes cat Config.empty *. 1.3 in
  let obs = Relax_obs.Recorder.create () in
  let opts =
    {
      (T.Tuner.default_options ~space_budget:space ()) with
      max_iterations = iters;
      jobs;
      whatif_budget;
    }
  in
  let r = T.Tuner.tune ~obs cat w opts in
  (cat, w, space, r, Relax_obs.Recorder.snapshot obs)

let test_budget_zero () =
  (* --whatif-budget 0: the search runs purely on bounds; the result must
     still be a valid recommendation, and its reported cost must be an
     honest exact cost, not a bound *)
  let cat, w, space, r, m = tune_tpch ~whatif_budget:(Some 0) () in
  Alcotest.(check int) "no budget spent" 0 (named "whatif.budget_spent" m);
  Alcotest.(check bool) "fits the space budget" true
    (r.recommended_size <= space);
  Alcotest.(check bool) "still improves on the base" true
    (r.recommended_cost <= r.initial_cost);
  let honest = T.Tuner.workload_cost cat r.recommended w in
  Alcotest.(check bool) "reported cost is honest" true
    (T.Cost_bound.float_eq ~eps:1e-6 honest r.recommended_cost)

let test_budget_spends_within () =
  let _, _, _, _, m = tune_tpch ~whatif_budget:(Some 16) () in
  let spent = named "whatif.budget_spent" m in
  Alcotest.(check bool) "spends within the budget" true (spent <= 16)

let test_frugal_fewer_calls () =
  (* the point of the tier: on a workload where exact costing pays calls
     every iteration, a finite budget must cut the what-if call count,
     with an honestly-reported recommendation.  (On toy problems exact
     costing pays almost nothing and frugality's fixed overhead — the
     base-config anchor pass — can balance the savings; this mirrors the
     bench's generated-workload regime at a smaller scale.) *)
  let schema = W.Bench_db.tpch_schema ~scale:0.01 () in
  let base = W.Generator.workload ~seed:900 schema ~n:13 in
  let rng = Relax_catalog.Rng.create 901 in
  let w =
    List.concat_map
      (fun rep ->
        List.map
          (fun (e : Query.entry) ->
            { e with qid = Printf.sprintf "%s-r%d" e.qid rep })
          (if rep = 0 then base
           else W.Generator.reparameterize schema rng base))
      (List.init 3 Fun.id)
  in
  let cat = schema.catalog in
  let space = Config.total_bytes cat Config.empty *. 1.3 in
  let run whatif_budget =
    let obs = Relax_obs.Recorder.create () in
    let opts =
      {
        (T.Tuner.default_options ~mode:T.Tuner.Indexes_only
           ~space_budget:space ())
        with
        max_iterations = 200;
        jobs = 1;
        whatif_budget;
      }
    in
    let r = T.Tuner.tune ~obs cat w opts in
    (r, Relax_obs.Recorder.snapshot obs)
  in
  let _, exact = run None in
  let r, frugal = run (Some 32) in
  let open Relax_obs.Metrics in
  Alcotest.(check bool)
    (Printf.sprintf "fewer what-if calls (exact %d, frugal %d)"
       exact.what_if_calls frugal.what_if_calls)
    true
    (frugal.what_if_calls < exact.what_if_calls);
  let honest = T.Tuner.workload_cost cat r.recommended w in
  Alcotest.(check bool) "frugal reported cost is honest" true
    (T.Cost_bound.float_eq ~eps:1e-6 honest r.recommended_cost)

let test_budget_determinism_jobs () =
  (* the frugal decision pass runs on the main domain; a finite budget must
     not cost determinism across worker counts *)
  let run jobs =
    tune_tpch ~nums:[ 1; 3; 6; 10; 14 ] ~jobs ~whatif_budget:(Some 24) ()
  in
  let _, _, _, r1, m1 = run 1 and _, _, _, r4, m4 = run 4 in
  let chk name b = Alcotest.(check bool) name true b in
  chk "recommended fingerprint"
    (Config.fingerprint r1.recommended = Config.fingerprint r4.recommended);
  chk "recommended cost" (r1.recommended_cost = r4.recommended_cost);
  chk "best trace" (r1.best_trace = r4.best_trace);
  chk "iterations" (r1.iterations = r4.iterations);
  chk "per-query costs" (r1.per_query = r4.per_query);
  let open Relax_obs.Metrics in
  chk "what-if calls" (m1.what_if_calls = m4.what_if_calls);
  chk "budget spent"
    (named "whatif.budget_spent" m1 = named "whatif.budget_spent" m4);
  chk "bound accepts"
    (named "whatif.bound_accepts" m1 = named "whatif.bound_accepts" m4);
  chk "bound rejects"
    (named "whatif.bound_rejects" m1 = named "whatif.bound_rejects" m4)

let suite =
  [
    Alcotest.test_case "interval: tighten_with" `Quick test_tighten_with;
    Alcotest.test_case "sweep: bounds decide without calls" `Quick
      test_sweep_bounds_decide;
    Alcotest.test_case "sweep: widest penalty gap first" `Quick
      test_sweep_refines_widest_first;
    Alcotest.test_case "sweep: ranking share bounds spend" `Quick
      test_sweep_budget_dry;
    QCheck_alcotest.to_alcotest prop_interval_sound_tpch;
    QCheck_alcotest.to_alcotest prop_patched_plan_matches_bound;
    Alcotest.test_case "tune: zero budget" `Slow test_budget_zero;
    Alcotest.test_case "tune: spend within budget" `Slow
      test_budget_spends_within;
    Alcotest.test_case "tune: frugal spends fewer calls" `Slow
      test_frugal_fewer_calls;
    Alcotest.test_case "tune: finite budget deterministic across jobs" `Slow
      test_budget_determinism_jobs;
  ]
