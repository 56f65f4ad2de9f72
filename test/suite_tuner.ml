(** Tests for the relaxation tuner: instrumentation (§2), transformations
    at the configuration level (§3.1), cost bounds (§3.3.2), the search
    (§3.4) and update handling (§3.6). *)

open Relax_sql.Types
module Query = Relax_sql.Query
module Index = Relax_physical.Index
module View = Relax_physical.View
module Config = Relax_physical.Config
module O = Relax_optimizer
module T = Relax_tuner
module W = Relax_workloads

let c = Column.make
let cat = lazy (Fixtures.small_catalog ())

let workload_of_strings l : Query.workload =
  List.mapi
    (fun i s -> Query.entry (Printf.sprintf "q%d" (i + 1)) (Relax_sql.Parser.statement s))
    l

let mb x = x *. 1024.0 *. 1024.0

(* --- instrumentation ---------------------------------------------------- *)

let test_optimal_beats_scan () =
  let cat = Lazy.force cat in
  let w = workload_of_strings [ "SELECT r.a, r.b FROM r WHERE r.a = 5" ] in
  let inst = T.Instrument.optimal_configuration cat ~base:Config.empty w in
  let whatif = O.Whatif.create cat in
  let base = O.Whatif.workload_cost whatif Config.empty w in
  let opt = O.Whatif.workload_cost whatif inst.optimal w in
  Alcotest.(check bool) "optimal strictly better" true (opt < base /. 2.0)

let test_optimal_covering_single_request () =
  (* Lemmas 1+2: one sargable equality and no order -> a single covering
     index with the sargable column as key *)
  let cat = Lazy.force cat in
  let w = workload_of_strings [ "SELECT r.b, r.e FROM r WHERE r.a = 5" ] in
  let inst = T.Instrument.optimal_configuration cat ~base:Config.empty w in
  let idx = Config.indexes inst.optimal in
  Alcotest.(check int) "one index" 1 (List.length idx);
  let i = List.hd idx in
  Alcotest.(check (list string)) "key is a" [ "a" ]
    (List.map (fun (x : column) -> x.col) i.keys);
  Alcotest.(check bool) "covers b and e" true
    (Column_set.subset
       (Column_set.of_list [ c "r" "b"; c "r" "e" ])
       (Index.columns i))

let test_optimal_order_index () =
  (* an ORDER BY generates an order-providing alternative (§2.1) *)
  let cat = Lazy.force cat in
  let w =
    workload_of_strings
      [ "SELECT r.d, r.e FROM r WHERE r.a < 10 AND r.b < 10 ORDER BY r.d" ]
  in
  let inst = T.Instrument.optimal_configuration cat ~base:Config.empty w in
  let has_d_leading =
    List.exists
      (fun (i : Index.t) ->
        match i.keys with k :: _ -> Column.equal k (c "r" "d") | [] -> false)
      (Config.indexes inst.optimal)
  in
  Alcotest.(check bool) "order index exists" true has_d_leading

let test_optimal_view_for_join () =
  let cat = Lazy.force cat in
  let w =
    workload_of_strings
      [ "SELECT r.a, s.y FROM r, s WHERE r.sid = s.id AND r.a < 5" ]
  in
  let inst = T.Instrument.optimal_configuration cat ~base:Config.empty w in
  Alcotest.(check bool) "view created" true (Config.views inst.optimal <> []);
  (* the view must actually be used by the final plan *)
  let whatif = O.Whatif.create cat in
  let q = Fixtures.parse_select "SELECT r.a, s.y FROM r, s WHERE r.sid = s.id AND r.a < 5" in
  let plan = O.Whatif.plan_select whatif inst.optimal ~qid:"q1" q in
  Alcotest.(check bool) "view used" true
    (List.exists (fun v -> O.Plan.uses_view plan v) (Config.views inst.optimal))

let test_request_stats_counted () =
  let cat = Lazy.force cat in
  let w =
    workload_of_strings
      [ "SELECT r.a, s.y FROM r, s WHERE r.sid = s.id AND r.a < 5" ]
  in
  let inst = T.Instrument.optimal_configuration cat ~base:Config.empty w in
  let s = List.hd inst.stats in
  Alcotest.(check bool) "index requests > 0" true (s.index_requests > 0);
  Alcotest.(check bool) "view requests > 0" true (s.view_requests > 0)

let test_indexes_only_mode () =
  let cat = Lazy.force cat in
  let w =
    workload_of_strings
      [ "SELECT r.a, s.y FROM r, s WHERE r.sid = s.id AND r.a < 5" ]
  in
  let inst =
    T.Instrument.optimal_configuration cat ~base:Config.empty ~views:false w
  in
  Alcotest.(check int) "no views" 0 (List.length (Config.views inst.optimal))

(* --- transformations at configuration level ------------------------------ *)

let est _ = 1000.0

let test_transform_apply_merge () =
  let i1 = Index.on "r" [ "a" ] ~suffix:[ "b" ] in
  let i2 = Index.on "r" [ "a"; "d" ] in
  let cfg = Config.of_indexes [ i1; i2 ] in
  match T.Transform.apply ~estimate_rows:est cfg (Merge_indexes (i1, i2)) with
  | Some cfg' ->
    Alcotest.(check int) "one index left" 1 (List.length (Config.indexes cfg'))
  | None -> Alcotest.fail "merge should apply"

let test_transform_stale () =
  let i1 = Index.on "r" [ "a" ] in
  let cfg = Config.empty in
  Alcotest.(check bool) "stale removal refused" true
    (T.Transform.apply ~estimate_rows:est cfg (Remove_index i1) = None)

let test_enumerate_respects_protected () =
  let i1 = Index.on "r" [ "a" ] in
  let i2 = Index.on "r" [ "b" ] in
  let cfg = Config.of_indexes [ i1; i2 ] in
  let protected = Config.of_indexes [ i1 ] in
  let ts = T.Transform.enumerate ~protected cfg in
  List.iter
    (fun tr ->
      let removed = T.Transform.removed_indexes cfg tr in
      Alcotest.(check bool) "protected untouched" false
        (List.exists (Index.equal i1) removed))
    ts

let test_enumerate_counts () =
  let i1 = Index.on "r" [ "a" ] ~suffix:[ "b" ] in
  let i2 = Index.on "r" [ "a"; "cc" ] in
  let cfg = Config.of_indexes [ i1; i2 ] in
  let ts = T.Transform.enumerate cfg in
  (* 2 removals + prefixes + 2 merges + 1 split + up to 2 promotions *)
  Alcotest.(check bool) "several transformations" true (List.length ts >= 7)

let test_view_merge_transformation_promotes_indexes () =
  let spjg s =
    match Relax_sql.Parser.statement s with
    | Query.Select q -> q.body
    | _ -> assert false
  in
  let v1 = View.make (spjg "SELECT r.a, r.b FROM r WHERE r.a < 10") in
  let v2 = View.make (spjg "SELECT r.a, r.d FROM r WHERE r.a >= 900") in
  let a1 = Option.get (View.view_column_of_base v1 (c "r" "a")) in
  let iv1 = Index.make ~clustered:true ~keys:[ a1 ] ~suffix:Column_set.empty () in
  let cfg = Config.add_view Config.empty v1 ~rows:100.0 in
  let cfg = Config.add_index cfg iv1 in
  let cfg = Config.add_view cfg v2 ~rows:100.0 in
  let a2 = Option.get (View.view_column_of_base v2 (c "r" "a")) in
  let iv2 = Index.make ~clustered:true ~keys:[ a2 ] ~suffix:Column_set.empty () in
  let cfg = Config.add_index cfg iv2 in
  match T.Transform.apply ~estimate_rows:est cfg (Merge_views (v1, v2)) with
  | Some cfg' ->
    Alcotest.(check int) "one view" 1 (List.length (Config.views cfg'));
    let vm = List.hd (Config.views cfg') in
    let on_vm = Config.indexes_on cfg' (View.name vm) in
    Alcotest.(check bool) "indexes promoted" true (List.length on_vm >= 1);
    Alcotest.(check int) "exactly one clustered" 1
      (List.length (List.filter (fun (i : Index.t) -> i.clustered) on_vm))
  | None -> Alcotest.fail "view merge should apply"

(* --- cost bounds --------------------------------------------------------- *)

let bound_vs_true ~workload_s ~config ~tr =
  let cat = Lazy.force cat in
  let q = Fixtures.parse_select workload_s in
  let plan = O.Optimizer.optimize cat config q in
  let config' =
    Option.get (T.Transform.apply ~estimate_rows:est config tr)
  in
  let ctx : T.Cost_bound.context =
    {
      env' = O.Env.make cat config';
      old_env = O.Env.make cat config;
      removed_indexes = T.Transform.removed_indexes config tr;
      removed_views = T.Transform.removed_views tr;
      view_merge = None;
      cbv = (fun _ -> 0.0);
      expands = T.Transform.adds_structures tr;
    }
  in
  let bound = T.Cost_bound.query_bound ctx plan in
  let true_cost = (O.Optimizer.optimize cat config' q).cost in
  (bound, true_cost, plan.cost)

let test_bound_dominates_true_cost_prefix () =
  let i = Index.on "r" [ "a" ] ~suffix:[ "b"; "cc" ] in
  let p = Index.on "r" [ "a" ] in
  let bound, true_cost, _ =
    bound_vs_true
      ~workload_s:"SELECT r.a, r.b, r.cc FROM r WHERE r.a = 5"
      ~config:(Config.of_indexes [ i ])
      ~tr:(Prefix_index (i, p))
  in
  Alcotest.(check bool)
    (Printf.sprintf "bound %.2f >= true %.2f" bound true_cost)
    true
    (bound >= true_cost -. 1e-6)

let test_bound_dominates_true_cost_removal () =
  let i = Index.on "r" [ "a" ] ~suffix:[ "b" ] in
  let bound, true_cost, old_cost =
    bound_vs_true
      ~workload_s:"SELECT r.a, r.b FROM r WHERE r.a = 5"
      ~config:(Config.of_indexes [ i ])
      ~tr:(Remove_index i)
  in
  Alcotest.(check bool) "bound >= true" true (bound >= true_cost -. 1e-6);
  Alcotest.(check bool) "bound >= old" true (bound >= old_cost -. 1e-6)

let test_bound_merge_can_improve () =
  (* merging can make a query cheaper (wider covering index): the bound may
     go below the old cost but must stay above the re-optimized cost *)
  let i1 = Index.on "r" [ "a" ] ~suffix:[ "b" ] in
  let i2 = Index.on "r" [ "a" ] ~suffix:[ "e" ] in
  let bound, true_cost, _ =
    bound_vs_true
      ~workload_s:"SELECT r.a, r.b, r.e FROM r WHERE r.a = 5"
      ~config:(Config.of_indexes [ i1; i2 ])
      ~tr:(Merge_indexes (i1, i2))
  in
  Alcotest.(check bool) "bound >= true" true (bound >= true_cost -. 1e-6)

(* --- end-to-end tuning ---------------------------------------------------- *)

let small_workload =
  [
    "SELECT r.a, r.b FROM r WHERE r.a = 5";
    "SELECT r.b, r.cc FROM r WHERE r.b = 7 AND r.d < 10";
    "SELECT r.a, s.y FROM r, s WHERE r.sid = s.id AND r.a < 20";
    "SELECT r.d, SUM(r.a) FROM r GROUP BY r.d";
    "SELECT s.x, s.y FROM s WHERE s.x = 100";
  ]

let tune ?(mode = T.Tuner.Indexes_only) ?(budget = mb 50.0) ?(iters = 120) w =
  let cat = Lazy.force cat in
  let opts = T.Tuner.default_options ~mode ~space_budget:budget () in
  T.Tuner.tune cat (workload_of_strings w) { opts with max_iterations = iters }

let test_tune_fits_budget () =
  (* the budget must exceed the base-table heap footprint (~6 MB for the
     fixture catalog): table storage counts toward the constraint *)
  let budget = mb 8.0 in
  let r = tune ~budget small_workload in
  Alcotest.(check bool) "within budget" true (r.recommended_size <= budget);
  Alcotest.(check bool) "improves" true (r.improvement > 0.0)

let test_tune_unconstrained_returns_optimal () =
  let r = tune ~budget:infinity small_workload in
  Fixtures.check_float ~eps:1e-6 "recommended = optimal" r.optimal_cost
    r.recommended_cost

let test_tune_monotone_in_budget () =
  let r_small = tune ~budget:(mb 8.0) small_workload in
  let r_large = tune ~budget:(mb 30.0) small_workload in
  Alcotest.(check bool) "more space at least as good" true
    (r_large.recommended_cost <= r_small.recommended_cost +. 1e-6)

let test_tune_cost_between_bounds () =
  let r = tune ~budget:(mb 8.0) small_workload in
  Alcotest.(check bool) "cost >= lower bound" true
    (r.recommended_cost >= r.lower_bound -. 1e-6);
  Alcotest.(check bool) "cost <= initial" true
    (r.recommended_cost <= r.initial_cost +. 1e-6)

let test_tune_frontier_contains_valid_points () =
  let r = tune ~budget:(mb 8.0) small_workload in
  Alcotest.(check bool) "explored several configs" true
    (List.length r.frontier >= 2);
  List.iter
    (fun (s, c) ->
      Alcotest.(check bool) "positive size" true (s > 0.0);
      Alcotest.(check bool) "positive cost" true (c > 0.0))
    r.frontier

let test_tune_views_mode () =
  let r =
    tune ~mode:T.Tuner.Indexes_and_views ~budget:(mb 30.0)
      [
        "SELECT r.a, s.y FROM r, s WHERE r.sid = s.id AND r.a < 20";
        "SELECT r.d, SUM(r.a) FROM r GROUP BY r.d";
      ]
  in
  Alcotest.(check bool) "improves" true (r.improvement > 0.0);
  Alcotest.(check bool) "within budget" true (r.recommended_size <= mb 30.0)

let test_tune_protected_base_preserved () =
  let cat = Lazy.force cat in
  let base = Config.of_indexes [ Index.on "r" ~clustered:true [ "id" ] ] in
  let opts =
    {
      (T.Tuner.default_options ~mode:T.Tuner.Indexes_only ~space_budget:(mb 9.0) ())
      with
      base_config = base;
      max_iterations = 100;
    }
  in
  let r = T.Tuner.tune cat (workload_of_strings small_workload) opts in
  Alcotest.(check bool) "base index kept" true
    (Config.mem_index r.recommended (Index.on "r" ~clustered:true [ "id" ]))

(* A configuration deployed earlier, seeded as the warm start: it fits the
   budget, so it is a valid incumbent — the recommendation can only be at
   least as cheap — and the seeded search is as deterministic as a cold
   one. *)
let test_tune_warm_seed_incumbent () =
  let cat = Lazy.force cat in
  let w = workload_of_strings small_workload in
  let budget = mb 8.0 in
  let seed = (tune ~budget ~iters:40 small_workload).recommended in
  Alcotest.(check bool) "seed fits" true
    (Config.total_bytes cat seed <= budget);
  let warm jobs =
    let opts =
      T.Tuner.default_options ~mode:T.Tuner.Indexes_only ~space_budget:budget ()
    in
    T.Tuner.tune cat w
      { opts with max_iterations = 5; initial_config = Some seed; jobs }
  in
  let r = warm 1 in
  Alcotest.(check bool) "no worse than the seed" true
    (T.Cost_bound.float_leq r.recommended_cost (T.Tuner.workload_cost cat seed w));
  let outputs (r : T.Tuner.result) =
    ( Config.fingerprint r.recommended,
      r.recommended_cost,
      r.frontier,
      r.best_trace,
      r.metrics.what_if_calls )
  in
  Alcotest.(check bool) "jobs=1 = jobs=2" true (outputs r = outputs (warm 2))

(* --- updates (§3.6) ------------------------------------------------------ *)

let update_workload =
  [
    "SELECT r.a, r.b FROM r WHERE r.a = 5";
    "UPDATE r SET b = b + 1 WHERE a < 50";
    "UPDATE r SET cc = cc + 1 WHERE d < 5";
    "SELECT r.d, SUM(r.a) FROM r GROUP BY r.d";
  ]

let test_tune_with_updates () =
  let r = tune ~budget:(mb 20.0) update_workload in
  Alcotest.(check bool) "within budget" true (r.recommended_size <= mb 20.0);
  Alcotest.(check bool) "not worse than initial" true
    (r.recommended_cost <= r.initial_cost +. 1e-6)

let test_update_lower_bound_not_tight () =
  let r = tune ~budget:(mb 20.0) update_workload in
  (* with updates the bound is generally strictly below any achievable
     configuration cost *)
  Alcotest.(check bool) "lower bound <= recommended" true
    (r.lower_bound <= r.recommended_cost +. 1e-6)

let test_updates_drop_expensive_indexes () =
  (* an index on a heavily-updated column should not survive when its only
     benefit is tiny *)
  let cat = Lazy.force cat in
  let w =
    workload_of_strings
      [
        "UPDATE r SET b = b + 1 WHERE a < 900";
        "UPDATE r SET b = b + 2 WHERE a < 900";
        "UPDATE r SET b = b + 3 WHERE a < 900";
      ]
  in
  let opts =
    T.Tuner.default_options ~mode:T.Tuner.Indexes_only ~space_budget:infinity ()
  in
  let r = T.Tuner.tune cat w { opts with max_iterations = 150 } in
  let has_b_index =
    List.exists
      (fun (i : Index.t) -> Column_set.mem (c "r" "b") (Index.columns i))
      (Config.indexes r.recommended)
  in
  Alcotest.(check bool) "no index containing b" false has_b_index

(* --- §3.5 variants -------------------------------------------------------- *)

let tune_with ?(budget = mb 9.0) patch w =
  let cat = Lazy.force cat in
  let opts =
    T.Tuner.default_options ~mode:T.Tuner.Indexes_only ~space_budget:budget ()
  in
  T.Tuner.tune cat (workload_of_strings w)
    (patch { opts with max_iterations = 80 })

let test_variant_multi_transform () =
  let r = tune_with (fun o -> { o with transforms_per_iteration = 3 }) small_workload in
  Alcotest.(check bool) "fits" true (r.recommended_size <= mb 9.0);
  Alcotest.(check bool) "improves" true (r.improvement > 0.0)

let test_variant_shrink () =
  let r = tune_with (fun o -> { o with shrink_configurations = true }) small_workload in
  Alcotest.(check bool) "fits" true (r.recommended_size <= mb 9.0);
  Alcotest.(check bool) "improves" true (r.improvement > 0.0)

(* §3.5 shrinking on an update workload, with three transformations per
   step: a node is costed against the configuration it keeps.  Its update
   shells are priced on the shrunk configuration, not on the one before
   shrinking, and its cost is its plans' plus those shells — for every
   evaluated node, and for the best one the search returns. *)
let test_shrink_prices_kept_shells () =
  let schema = W.Bench_db.schema ~scale:0.02 () in
  let cat = schema.catalog in
  let workload =
    W.Generator.workload ~seed:8
      ~profile:{ W.Generator.default_profile with update_fraction = 0.5 }
      schema ~n:24
  in
  let prepared = T.Search.prepare workload in
  Alcotest.(check bool) "the workload has updates" true prepared.has_updates;
  let check_node (n : T.Search.node) =
    let env = O.Env.make cat n.config in
    let shells =
      List.fold_left
        (fun acc (w, d) -> acc +. (w *. O.Update_cost.shell_cost env n.config d))
        0.0 prepared.dmls
    in
    Fixtures.check_float
      (Printf.sprintf "node %d: shell cost of the kept configuration" n.id)
      shells n.shell_cost;
    let selects =
      Array.fold_left
        (fun acc (qid, w, _) ->
          match T.Costing.plan_of n ~qid with
          | Some (p : O.Plan.t) -> acc +. (w *. p.cost)
          | None -> Alcotest.failf "no plan for %s" qid)
        0.0 prepared.selects_arr
    in
    Fixtures.check_float
      (Printf.sprintf "node %d: cost = plans + shells" n.id)
      (selects +. n.shell_cost) n.cost
  in
  let inst =
    T.Instrument.optimal_configuration cat ~base:Config.empty ~views:false
      workload
  in
  let opts =
    {
      (T.Tuner.default_options ~mode:T.Tuner.Indexes_only
         ~space_budget:(1.3 *. Config.total_bytes cat Config.empty)
         ())
      with
      max_iterations = 200;
      transforms_per_iteration = 3;
      shrink_configurations = true;
      on_iteration =
        Some (fun r -> Option.iter check_node r.T.Search.it_result);
    }
  in
  let outcome = T.Search.run cat ~workload ~initial:inst.optimal opts in
  match outcome.best with
  | Some n -> check_node n
  | None -> Alcotest.fail "no configuration fits the budget"

let test_variant_random_deterministic () =
  let run () =
    tune_with (fun o -> { o with selection = T.Search.Random 7 }) small_workload
  in
  let a = run () and b = run () in
  Fixtures.check_float "same cost" a.recommended_cost b.recommended_cost;
  Alcotest.(check string) "same configuration"
    (Config.fingerprint a.recommended)
    (Config.fingerprint b.recommended)

let test_variant_selections_all_valid () =
  List.iter
    (fun sel ->
      let r = tune_with (fun o -> { o with selection = sel }) small_workload in
      Alcotest.(check bool) "fits" true (r.recommended_size <= mb 9.0))
    [ T.Search.Penalty; T.Search.Cost_greedy; T.Search.Space_greedy;
      T.Search.Random 3 ]

(* --- robustness ------------------------------------------------------------ *)

let test_empty_workload () =
  let cat = Lazy.force cat in
  let r =
    T.Tuner.tune cat []
      (T.Tuner.default_options ~mode:T.Tuner.Indexes_only ~space_budget:(mb 50.0) ())
  in
  Alcotest.(check int) "no structures" 0 (Config.cardinal r.recommended);
  Fixtures.check_float "zero cost" 0.0 r.recommended_cost

let test_time_budget_respected () =
  let cat = Lazy.force cat in
  let opts =
    {
      (T.Tuner.default_options ~mode:T.Tuner.Indexes_only ~space_budget:(mb 8.0) ())
      with
      max_iterations = 1_000_000;
      time_budget_s = Some 0.5;
    }
  in
  let t0 = Unix.gettimeofday () in
  let _ = T.Tuner.tune cat (workload_of_strings small_workload) opts in
  let elapsed = Unix.gettimeofday () -. t0 in
  (* instrumentation + one search pass dominate; the loop itself must stop *)
  Alcotest.(check bool)
    (Printf.sprintf "stopped in %.1fs" elapsed)
    true (elapsed < 10.0)

let test_duplicate_statements_ok () =
  let cat = Lazy.force cat in
  let e =
    Relax_sql.Query.entry ~weight:2.0 "dup"
      (Relax_sql.Parser.statement "SELECT r.a FROM r WHERE r.a = 1")
  in
  let r =
    T.Tuner.tune cat [ e; { e with qid = "dup2" } ]
      (T.Tuner.default_options ~mode:T.Tuner.Indexes_only ~space_budget:infinity ())
  in
  Alcotest.(check bool) "improves" true (r.improvement > 0.0)

(* --- report helpers ------------------------------------------------------ *)

let test_per_query_report () =
  let r = tune ~budget:(mb 9.0) small_workload in
  Alcotest.(check int) "one row per statement" (List.length small_workload)
    (List.length r.per_query);
  (* total improvement must be consistent with the per-query rows *)
  let total_after = List.fold_left (fun a (_, _, x) -> a +. x) 0.0 r.per_query in
  Fixtures.check_float ~eps:1e-3 "sums match" r.recommended_cost total_after;
  (* a pure-select workload under a feasible budget never regresses *)
  Alcotest.(check (list string)) "no regressions" []
    (List.map (fun (q, _, _) -> q) (T.Report.regressions r))

let test_pareto_frontier () =
  let pts = [ (10.0, 5.0); (20.0, 3.0); (15.0, 7.0); (30.0, 2.0) ] in
  let f = T.Report.pareto_frontier pts in
  Alcotest.(check int) "three non-dominated" 3 (List.length f);
  Alcotest.(check bool) "dominated point removed" false
    (List.mem (15.0, 7.0) f)

(* --- properties ----------------------------------------------------------- *)

let prop_search_respects_budget =
  QCheck.Test.make ~name:"recommended configuration fits the budget" ~count:8
    (QCheck.make (QCheck.Gen.int_range 8 30))
    (fun budget_mb ->
      let r = tune ~budget:(mb (float_of_int budget_mb)) ~iters:60 small_workload in
      r.recommended_size <= mb (float_of_int budget_mb) +. 1.0)

let suite =
  [
    Alcotest.test_case "optimal beats scan" `Quick test_optimal_beats_scan;
    Alcotest.test_case "optimal covering index (Lemmas 1-2)" `Quick
      test_optimal_covering_single_request;
    Alcotest.test_case "optimal order index" `Quick test_optimal_order_index;
    Alcotest.test_case "optimal view for join" `Quick test_optimal_view_for_join;
    Alcotest.test_case "request stats" `Quick test_request_stats_counted;
    Alcotest.test_case "indexes-only mode" `Quick test_indexes_only_mode;
    Alcotest.test_case "transform: apply merge" `Quick test_transform_apply_merge;
    Alcotest.test_case "transform: stale refused" `Quick test_transform_stale;
    Alcotest.test_case "transform: protected" `Quick
      test_enumerate_respects_protected;
    Alcotest.test_case "transform: enumeration" `Quick test_enumerate_counts;
    Alcotest.test_case "transform: view merge promotes indexes" `Quick
      test_view_merge_transformation_promotes_indexes;
    Alcotest.test_case "bound >= true (prefix)" `Quick
      test_bound_dominates_true_cost_prefix;
    Alcotest.test_case "bound >= true (removal)" `Quick
      test_bound_dominates_true_cost_removal;
    Alcotest.test_case "bound >= true (merge)" `Quick test_bound_merge_can_improve;
    Alcotest.test_case "tune fits budget" `Quick test_tune_fits_budget;
    Alcotest.test_case "tune unconstrained = optimal" `Quick
      test_tune_unconstrained_returns_optimal;
    Alcotest.test_case "tune monotone in budget" `Quick test_tune_monotone_in_budget;
    Alcotest.test_case "tune between bounds" `Quick test_tune_cost_between_bounds;
    Alcotest.test_case "tune frontier" `Quick test_tune_frontier_contains_valid_points;
    Alcotest.test_case "tune with views" `Quick test_tune_views_mode;
    Alcotest.test_case "tune preserves base" `Quick test_tune_protected_base_preserved;
    Alcotest.test_case "tune warm seed is a valid incumbent" `Quick
      test_tune_warm_seed_incumbent;
    Alcotest.test_case "tune with updates" `Quick test_tune_with_updates;
    Alcotest.test_case "update lower bound" `Quick test_update_lower_bound_not_tight;
    Alcotest.test_case "updates drop expensive indexes" `Quick
      test_updates_drop_expensive_indexes;
    Alcotest.test_case "variant: multi-transform" `Quick test_variant_multi_transform;
    Alcotest.test_case "variant: shrink" `Quick test_variant_shrink;
    Alcotest.test_case "variant: shrink prices the kept shells" `Quick
      test_shrink_prices_kept_shells;
    Alcotest.test_case "variant: random deterministic" `Quick
      test_variant_random_deterministic;
    Alcotest.test_case "variant: all selections valid" `Quick
      test_variant_selections_all_valid;
    Alcotest.test_case "per-query report" `Quick test_per_query_report;
    Alcotest.test_case "empty workload" `Quick test_empty_workload;
    Alcotest.test_case "time budget" `Quick test_time_budget_respected;
    Alcotest.test_case "duplicate statements" `Quick test_duplicate_statements_ok;
    Alcotest.test_case "pareto frontier" `Quick test_pareto_frontier;
    QCheck_alcotest.to_alcotest prop_search_respects_budget;
  ]
