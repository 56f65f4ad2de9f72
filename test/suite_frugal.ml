(** Tests for the what-if call ledger (lib/core/frugal.ml): the sweep's
    decision rules, the bounded and unbounded ledgers, the ΔT interval's
    two-sided soundness over TPC-H relaxations, the §3.3.2 patched plan,
    the bound memo (exact bounds, a cap that moves only hits), and
    end-to-end tuning runs (zero budget, an unbounded ledger that
    never bound-costs, determinism across [jobs], honest reporting). *)

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
    1.0 5.0

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
  let t = create (Some 0) in
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
  let t = create (Some 8) in
  let a = cand "a" { lo = 0.0; hi = 10.0 } in
  let b = cand "b" { lo = 2.0; hi = 6.0 } in
  (* c's upper end sets the threshold (5.0) and never straddles it *)
  let c = cand "c" { lo = 4.0; hi = 5.0 } in
  let order = ref [] in
  let refine cd =
    order := cd.payload :: !order;
    debit t 1;
    let x = match cd.payload with "a" -> 3.0 | _ -> 4.0 in
    cd.ival <- { lo = x; hi = x }
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
  let t = create (Some 4) in
  Alcotest.(check int) "ranking share is a quarter" 1 (rank_remaining t);
  let a = cand "a" { lo = 0.0; hi = 10.0 } in
  let b = cand "b" { lo = 1.0; hi = 9.0 } in
  let c = cand "c" { lo = 2.0; hi = 8.5 } in
  let refine cd =
    debit t 1;
    cd.ival <- { lo = 7.0; hi = 7.0 }
  in
  let accepts, rejects = counted_sweep t ~refine [ a; b; c ] in
  Alcotest.(check int) "exactly the ranking share spent" 1 (spent t);
  Alcotest.(check bool) "widest refined" true a.refined;
  Alcotest.(check bool) "others left straddling" false (b.refined || c.refined);
  Alcotest.(check int) "straddlers not miscounted" 0 (accepts + rejects)

(* --- the ledger's two policies --------------------------------------------- *)

let test_ledger_negative_budget () =
  Alcotest.check_raises "negative budget"
    (Invalid_argument "Frugal.create: negative budget") (fun () ->
      ignore (T.Frugal.create (Some (-1))));
  let t = T.Frugal.create (Some 0) in
  Alcotest.(check bool) "zero is bounded" true (T.Frugal.bounded t);
  Alcotest.(check int) "zero budget has nothing left" 0 (T.Frugal.remaining t)

let test_ledger_unbounded () =
  (* the unbounded ledger has no ranking share: the sweep leaves every
     candidate at its upper end, calls nothing and counts nothing *)
  let open T.Frugal in
  let t = create None in
  Alcotest.(check bool) "unbounded" false (bounded t);
  Alcotest.(check int) "no ranking share" 0 (rank_remaining t);
  Alcotest.(check int) "unlimited" max_int (remaining t);
  let a = cand "a" { lo = 0.0; hi = 10.0 } in
  let b = cand "b" { lo = 1.0; hi = 2.0 } in
  let accepts, rejects =
    counted_sweep t
      ~refine:(fun _ -> Alcotest.fail "refine on the unbounded ledger")
      [ a; b ]
  in
  Alcotest.(check int) "nothing counted" 0 (accepts + rejects);
  Alcotest.(check (float 1e-9)) "upper end kept" 10.0 a.ival.hi;
  Alcotest.(check int) "nothing spent" 0 (spent t)

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

(* --- the bound memo ----------------------------------------------------- *)

(* Walk a relaxation chain from the TPC-H optimal configuration the way
   the search ranks: at each configuration bound every affected plan of
   every applicable transformation, both without the memo and through it,
   merging the misses with [cap] after each bound; then follow the
   [picks]-chosen transformation to the relaxed configuration and its
   re-optimized plans.  Returns the (memo-free, memoized) bound pairs in
   order and the largest memo seen after a merge. *)
let bound_chain ~cap memo picks =
  let cat, optimal, whatif, plans0, _ = Lazy.force tpch in
  let est v =
    O.Cardinality.spjg (O.Env.make cat Config.empty) (View.definition v)
  in
  let largest = ref 0 in
  let bound_all config plans acc =
    List.fold_left
      (fun acc tr ->
        match T.Transform.apply ~estimate_rows:est config tr with
        | None -> acc
        | Some config' ->
          let ctx = bound_context cat config config' tr in
          Array.fold_left
            (fun acc (_, sq, plan) ->
              if not (T.Cost_bound.plan_affected ctx plan) then acc
              else begin
                let order_by = sq.Query.order_by in
                let free = T.Cost_bound.query_bound ~order_by ctx plan in
                let memoized, misses =
                  T.Cost_bound.query_bound_memo memo [] ~order_by ctx plan
                in
                T.Search.remember ~cap memo misses;
                largest := max !largest (Hashtbl.length memo);
                (free, memoized) :: acc
              end)
            acc plans)
      acc (T.Transform.enumerate config)
  in
  let rec go config plans acc = function
    | [] -> acc
    | pick :: rest -> (
      let acc = bound_all config plans acc in
      let transforms = Array.of_list (T.Transform.enumerate config) in
      if Array.length transforms = 0 then acc
      else
        let tr = transforms.(pick mod Array.length transforms) in
        match T.Transform.apply ~estimate_rows:est config tr with
        | None -> go config plans acc rest
        | Some config' ->
          let plans' =
            Array.map
              (fun (qid, sq, _) ->
                (qid, sq, O.Whatif.plan_select whatif config' ~qid sq))
              plans
          in
          go config' plans' acc rest)
  in
  let pairs = List.rev (go optimal plans0 [] picks) in
  (pairs, !largest)

let same_bits (free, memoized) =
  Int64.equal (Int64.bits_of_float free) (Int64.bits_of_float memoized)

(* the memo is an optimization only: whatever earlier relaxations left in
   the table, the memoized bound is the memo-free one, bit for bit *)
let prop_memo_bound_exact =
  QCheck.Test.make
    ~name:"memoized query_bound equals query_bound bit for bit (TPC-H)"
    ~count:12
    QCheck.(list_of_size Gen.(int_range 1 3) (int_bound 10_000))
    (fun picks ->
      let pairs, _ =
        bound_chain ~cap:T.Search.bound_memo_cap (Hashtbl.create 64) picks
      in
      List.for_all same_bits pairs)

(* a cap small enough to clear the memo many times moves no bound and no
   request count: only the memo hits drop *)
let test_memo_cap_clears () =
  let picks = [ 0; 5; 11 ] in
  (* warm the what-if cache, so both recorded runs optimize nothing *)
  ignore (bound_chain ~cap:T.Search.bound_memo_cap (Hashtbl.create 64) picks);
  let run cap =
    let r = Relax_obs.Recorder.create () in
    let pairs, largest =
      Relax_obs.Recorder.with_ambient r (fun () ->
          bound_chain ~cap (Hashtbl.create 64) picks)
    in
    let counters = (Relax_obs.Recorder.snapshot r).named_counters in
    let count name = Option.value ~default:0 (List.assoc_opt name counters) in
    (pairs, count "access_path.requests", count "access_path.memo_hits", largest)
  in
  let full, requests_full, hits_full, _ = run T.Search.bound_memo_cap in
  let small, requests_small, hits_small, largest = run 4 in
  Alcotest.(check bool) "memo bounds are exact" true (List.for_all same_bits full);
  Alcotest.(check bool) "bounds unchanged by the cap" true
    (List.equal
       (fun (a, _) (b, _) -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
       full small
    && List.for_all same_bits small);
  Alcotest.(check int) "requests unchanged by the cap" requests_full requests_small;
  Alcotest.(check bool) "the memo answers" true (hits_full > 0);
  Alcotest.(check bool) "clearing costs hits" true (hits_small < hits_full);
  Alcotest.(check bool) "the cap holds" true (largest <= 4)

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

let test_exact_stays_exact () =
  (* the unbounded ledger: no call is ever budgeted and no plan is ever
     costed from bounds *)
  let cat, w, space, _, m = tune_tpch ~whatif_budget:None () in
  List.iter
    (fun name -> Alcotest.(check int) name 0 (named name m))
    [
      "whatif.budget_spent"; "whatif.bound_costed"; "whatif.point_exact";
      "whatif.bound_accepts"; "whatif.bound_rejects"; "whatif.endgame_spent";
    ];
  let initial =
    (T.Instrument.optimal_configuration cat ~base:Config.empty w).optimal
  in
  let opts =
    {
      (T.Tuner.default_options ~space_budget:space ()) with
      max_iterations = 40;
      jobs = 1;
    }
  in
  match (T.Search.run cat ~workload:w ~initial opts).best with
  | None -> Alcotest.fail "no configuration fits the budget"
  | Some best ->
    Alcotest.(check bool) "no pseudo slot on the best node" true
      (T.Search.Bitset.is_empty best.pseudo)

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
    Alcotest.test_case "ledger: negative budget" `Quick
      test_ledger_negative_budget;
    Alcotest.test_case "ledger: unbounded" `Quick test_ledger_unbounded;
    QCheck_alcotest.to_alcotest prop_interval_sound_tpch;
    QCheck_alcotest.to_alcotest prop_patched_plan_matches_bound;
    QCheck_alcotest.to_alcotest prop_memo_bound_exact;
    Alcotest.test_case "bound memo: a small cap moves only hits" `Quick
      test_memo_cap_clears;
    Alcotest.test_case "tune: zero budget" `Slow test_budget_zero;
    Alcotest.test_case "tune: exact costing stays exact" `Slow
      test_exact_stays_exact;
    Alcotest.test_case "tune: spend within budget" `Slow
      test_budget_spends_within;
    Alcotest.test_case "tune: frugal spends fewer calls" `Slow
      test_frugal_fewer_calls;
    Alcotest.test_case "tune: finite budget deterministic across jobs" `Slow
      test_budget_determinism_jobs;
  ]
