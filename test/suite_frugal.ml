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
       Array.map
         (fun (qid, _, sq) ->
           (qid, sq, O.Whatif.plan_select whatif inst.optimal ~qid sq))
         prepared.selects_arr
     in
     let transforms = Array.of_list (T.Transform.enumerate inst.optimal) in
     (cat, inst.optimal, whatif, plans, transforms))

let bound_context cat config config' tr =
  T.Cost_bound.make_context cat
    ~cbv:(fun v ->
      (O.Optimizer.optimize cat Config.empty
         { Query.body = View.definition v; order_by = [] })
        .cost)
    ~new_config:config' [ (config, tr) ]

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
let patched_plan_matches_bound name =
  QCheck.Test.make ~name ~count:120
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

let prop_patched_plan_matches_bound =
  patched_plan_matches_bound "patched plan realizes query_bound (TPC-H)"

(* The same property at the seeds where a merge that yields one of its
   parents listed that parent as removed: a plan reading the survivor was
   then affected, and its patched plan, which reads the survivor again,
   still was. *)
let pinned_patched_plan_matches_bound =
  List.map
    (fun seed ->
      QCheck_alcotest.to_alcotest
        ~rand:(Random.State.make [| seed |])
        (patched_plan_matches_bound
           (Printf.sprintf "patched plan at seed %d (TPC-H)" seed)))
    [ 880815056; 17; 21 ]

(* --- the bound memo ----------------------------------------------------- *)

(* Walk a relaxation chain from the TPC-H optimal configuration the way
   the search ranks: at each configuration build every plan's bound walk
   once, then bound every affected plan of every applicable
   transformation two ways: without the memo, and as the search does,
   through [memo] by the plan's walk and the transformation's relation
   keys.  Each walk's misses are merged with [cap] after each bound.
   Then follow the [picks]-chosen transformation to the relaxed
   configuration and its re-optimized plans.  Returns the (memo-free,
   walked) bound pairs in order, the largest memo seen after a merge, and
   how many of the bounds were of view merges. *)
let bound_chain ~cap memo picks =
  let cat, optimal, whatif, plans0, _ = Lazy.force tpch in
  let est v =
    O.Cardinality.spjg (O.Env.make cat Config.empty) (View.definition v)
  in
  let largest = ref 0 and merges = ref 0 in
  let bound_all config plans acc =
    let ctxs =
      List.filter_map
        (fun tr ->
          Option.map
            (fun config' -> bound_context cat config config' tr)
            (T.Transform.apply ~estimate_rows:est config tr))
        (T.Transform.enumerate config)
    in
    (* keyed as the search keys a node's walks: every access some
       candidate selects on again *)
    let keyed a =
      List.exists (fun ctx -> T.Cost_bound.reselects ctx a) ctxs
    in
    let walks =
      Array.map
        (fun (_, sq, plan) ->
          T.Cost_bound.walk ~order_by:sq.Query.order_by ~keyed plan)
        plans
    in
    List.fold_left
      (fun acc ctx ->
      let keys = T.Cost_bound.relation_keys ctx in
      let acc = ref acc in
      Array.iteri
        (fun k (_, sq, plan) ->
          if T.Cost_bound.plan_affected ctx plan then begin
            let order_by = sq.Query.order_by in
            let free = T.Cost_bound.query_bound ~order_by ctx plan in
            let walked, misses =
              T.Cost_bound.query_bound_walk memo [] keys ctx walks.(k)
            in
            T.Ranking.remember ~cap memo misses;
            largest := max !largest (Hashtbl.length memo);
            if Option.is_some ctx.view_merge then incr merges;
            acc := (free, walked) :: !acc
          end)
        plans;
      !acc)
      acc ctxs
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
  (pairs, !largest, !merges)

let same_bits (free, walked) =
  Int64.equal (Int64.bits_of_float free) (Int64.bits_of_float walked)

(* the memo is an optimization only: whatever earlier relaxations left in
   the table, the bound through it, keyed by node walks and per-candidate
   relation keys as the search keys it, is the memo-free one, bit for
   bit *)
let prop_memo_bound_exact =
  QCheck.Test.make
    ~name:"memoized query_bound equals query_bound bit for bit (TPC-H)"
    ~count:12
    QCheck.(list_of_size Gen.(int_range 1 3) (int_bound 10_000))
    (fun picks ->
      let pairs, _, _ =
        bound_chain ~cap:T.Ranking.bound_memo_cap (Hashtbl.create 64) picks
      in
      List.for_all same_bits pairs)

(* a cap small enough to clear the memo many times moves no bound and no
   request count: only the memo hits drop *)
let test_memo_cap_clears () =
  let picks = [ 0; 5; 11 ] in
  (* warm the what-if cache, so both recorded runs optimize nothing *)
  ignore
    (bound_chain ~cap:T.Ranking.bound_memo_cap (Hashtbl.create 64) picks);
  let run cap =
    let r = Relax_obs.Recorder.create () in
    let pairs, largest, merges =
      Relax_obs.Recorder.with_ambient r (fun () ->
          bound_chain ~cap (Hashtbl.create 64) picks)
    in
    let counters = (Relax_obs.Recorder.snapshot r).named_counters in
    let count name = Option.value ~default:0 (List.assoc_opt name counters) in
    ( pairs,
      count "access_path.requests",
      count "access_path.memo_hits",
      largest,
      merges )
  in
  let full, requests_full, hits_full, _, merges = run T.Ranking.bound_memo_cap in
  let small, requests_small, hits_small, largest, _ = run 4 in
  Alcotest.(check bool) "the chain bounds view merges" true (merges > 0);
  Alcotest.(check bool) "memo bounds are exact" true (List.for_all same_bits full);
  Alcotest.(check bool) "bounds unchanged by the cap" true
    (List.equal (fun (a, _) (b, _) -> same_bits (a, b)) full small
    && List.for_all same_bits small);
  Alcotest.(check int) "requests unchanged by the cap" requests_full requests_small;
  Alcotest.(check bool) "the memo answers" true (hits_full > 0);
  Alcotest.(check bool) "clearing costs hits" true (hits_small < hits_full);
  Alcotest.(check bool) "the cap holds" true (largest <= 4)

(* A merge join can consume the key order an index scan delivers without
   its request asking for it (TPC-H Q12 with orders read through
   ix[orders](o_orderkey); see suite_check).  A walk folds that order into
   the access's request before keying it, as query_bound does, so merging
   the index away bounds the ordered replacement there too. *)
let test_walk_consumed_order () =
  let module Index = Relax_physical.Index in
  let cat, _, whatif, _, _ = Lazy.force tpch in
  let i1 =
    Index.on "orders" [ "o_orderdate" ]
      ~suffix:[ "o_custkey"; "o_orderkey"; "o_shippriority" ]
  in
  let i2 = Index.on "orders" [ "o_orderkey" ] in
  let lineitem =
    Index.on "lineitem" [ "l_receiptdate" ]
      ~suffix:[ "l_commitdate"; "l_orderkey"; "l_shipdate"; "l_shipmode" ]
  in
  let config = Config.of_indexes [ i1; i2; lineitem ] in
  let tr = T.Transform.Merge_indexes (i1, i2) in
  match
    T.Transform.apply ~estimate_rows:(fun _ -> assert false) config tr
  with
  | None -> Alcotest.fail "merge unexpectedly inapplicable"
  | Some config' ->
    let ctx = bound_context cat config config' tr in
    let keys = T.Cost_bound.relation_keys ctx in
    let memo = Hashtbl.create 16 in
    let checked =
      Array.fold_left
        (fun checked (qid, _, (sq : Query.select_query)) ->
          let plan = O.Whatif.plan_select whatif config ~qid sq in
          if not (T.Cost_bound.plan_affected ctx plan) then checked
          else begin
            let order_by = sq.order_by in
            let free = T.Cost_bound.query_bound ~order_by ctx plan in
            let walk =
              T.Cost_bound.walk ~order_by ~keyed:(T.Cost_bound.reselects ctx)
                plan
            in
            (* the keys the walk holds are the ones a bound computes in
               place, from the request with its consumed order *)
            let miss_keys walk =
              List.map fst
                (snd
                   (T.Cost_bound.query_bound_walk (Hashtbl.create 1) [] keys
                      ctx walk))
            in
            Alcotest.(check (list string))
              (qid ^ ": walk keys are the in-place keys")
              (miss_keys
                 (T.Cost_bound.walk ~order_by ~keyed:(fun _ -> false) plan))
              (miss_keys walk);
            (* twice: computed, then answered by the memo *)
            let first, misses =
              T.Cost_bound.query_bound_walk memo [] keys ctx walk
            in
            T.Ranking.remember ~cap:T.Ranking.bound_memo_cap memo misses;
            let again, _ = T.Cost_bound.query_bound_walk memo [] keys ctx walk in
            Alcotest.(check bool)
              (qid ^ ": walked bound is query_bound") true
              (same_bits (free, first) && same_bits (free, again));
            checked + 1
          end)
        0
        (T.Search.prepare (W.Tpch.workload_subset [ 3; 10; 12 ])).selects_arr
    in
    Alcotest.(check bool) "at least one plan affected" true (checked > 0)

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
      (Array.for_all
         (fun (qid, _, _) -> not (T.Costing.is_pseudo best ~qid))
         (T.Search.prepare w).selects_arr)

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

(* An endgame that spends: a views-mode tune of the TPC-H subset at 40 MB
   under a 200-call budget leaves 18 calls for re-costing the pseudo slots
   of the cheapest fitting nodes.  The digest covers the recommendation,
   its cost bits, the frontier and the best trace, recorded before the
   endgame's re-costing moved into [Costing]; both must hold at any
   [jobs]. *)
let test_endgame_pin () =
  let cat = W.Tpch.catalog ~scale:0.02 () in
  let w = W.Tpch.workload_subset [ 1; 3; 6; 10; 14 ] in
  let run jobs =
    let obs = Relax_obs.Recorder.create () in
    let opts =
      {
        (T.Tuner.default_options ~mode:T.Tuner.Indexes_and_views
           ~space_budget:(40.0 *. 1024.0 *. 1024.0) ())
        with
        max_iterations = 60;
        jobs;
        whatif_budget = Some 200;
      }
    in
    let r = T.Tuner.tune ~obs cat w opts in
    (r, Relax_obs.Recorder.snapshot obs)
  in
  List.iter
    (fun jobs ->
      let r, m = run jobs in
      let bits f = Int64.to_string (Int64.bits_of_float f) in
      let digest =
        Digest.to_hex
          (Digest.string
             (String.concat ";"
                ([ Config.fingerprint r.recommended; bits r.recommended_cost ]
                @ List.map (fun (s, c) -> bits s ^ "," ^ bits c) r.frontier
                @ List.map
                    (fun (i, c) -> string_of_int i ^ "," ^ bits c)
                    r.best_trace)))
      in
      let at what = Printf.sprintf "%s at jobs %d" what jobs in
      Alcotest.(check int) (at "endgame spent") 18
        (named "whatif.endgame_spent" m);
      Alcotest.(check string) (at "outcome digest")
        "254b8ac515cbd9a41bc9ac56318eeab7" digest)
    [ 1; 2 ]

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
    Alcotest.test_case "bound walk keeps a consumed order (TPC-H Q12)" `Quick
      test_walk_consumed_order;
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
  @ pinned_patched_plan_matches_bound
  @ [
      Alcotest.test_case "tune: an endgame that spends (pinned)" `Slow
        test_endgame_pin;
    ]
