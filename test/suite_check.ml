(** Tests for the differential invariant checker (lib/check): property
    tests for the §3.3.1 size model and the §3.3.2 cost bounds, the
    structural invariants, and an end-to-end checked tuning run. *)

open Relax_sql.Types
module Query = Relax_sql.Query
module Catalog = Relax_catalog.Catalog
module Index = Relax_physical.Index
module View = Relax_physical.View
module Config = Relax_physical.Config
module Size_model = Relax_physical.Size_model
module O = Relax_optimizer
module T = Relax_tuner
module C = Relax_check
module W = Relax_workloads

let c = Column.make
let cat = lazy (Fixtures.small_catalog ())

(* --- generators ----------------------------------------------------------- *)

let r_cols = [ "a"; "b"; "cc"; "d"; "e"; "sid"; "tid" ]

(* a well-formed random index over r: non-empty key prefix of a random
   permutation, disjoint suffix, optionally clustered *)
let gen_r_index ?(allow_clustered = true) () =
  QCheck.Gen.(
    let* perm = shuffle_l r_cols in
    let* k = int_range 1 3 in
    let keys = List.filteri (fun i _ -> i < k) perm in
    let* ns = int_range 0 3 in
    let suffix = List.filteri (fun i _ -> i < ns) (List.filteri (fun i _ -> i >= k) perm) in
    let* clustered = if allow_clustered then bool else return false in
    return (Index.on "r" ~clustered ~suffix keys))

(* a well-formed configuration: several indexes on r, at most one clustered *)
let gen_config =
  QCheck.Gen.(
    let* n = int_range 1 4 in
    let* idxs = flatten_l (List.init n (fun i -> gen_r_index ~allow_clustered:(i = 0) ())) in
    return (Config.of_indexes idxs))

let arb_config = QCheck.make ~print:Config.fingerprint gen_config

(* --- §3.3.1 size-model properties ------------------------------------------ *)

let index_size rows i =
  let cat = Lazy.force cat in
  Size_model.index_bytes ~rows
    ~width_of:(fun col -> Catalog.col_width cat col)
    ~row_width:(Catalog.row_width cat "r")
    i

(* more rows can never make an index smaller *)
let prop_size_monotone_rows =
  QCheck.Test.make ~name:"index size monotone in row count" ~count:200
    (QCheck.make
       QCheck.Gen.(
         let* i = gen_r_index () in
         let* rows = int_range 1 200_000 in
         let* delta = int_range 0 100_000 in
         return (i, rows, delta)))
    (fun (i, rows, delta) ->
      index_size (float_of_int rows) i
      <= index_size (float_of_int (rows + delta)) i)

(* adding a suffix column can never make an index smaller *)
let prop_size_monotone_suffix =
  QCheck.Test.make ~name:"index size monotone in suffix columns" ~count:200
    (QCheck.make
       QCheck.Gen.(
         let* i = gen_r_index () in
         let* rows = int_range 1 200_000 in
         let* extra = shuffle_l r_cols in
         return (i, rows, List.hd extra)))
    (fun (i, rows, extra_col) ->
      let wider =
        Index.make ~clustered:i.Index.clustered ~keys:i.Index.keys
          ~suffix:(Column_set.add (c "r" extra_col) i.Index.suffix)
          ()
      in
      index_size (float_of_int rows) i <= index_size (float_of_int rows) wider)

(* the closed form agrees with the packing simulation: floor capacities,
   ceil page counts, level by level *)
let prop_size_simulation_agrees =
  QCheck.Test.make ~name:"closed-form size matches packing simulation"
    ~count:300
    (QCheck.make
       QCheck.Gen.(
         let* rows = int_range 1 500_000 in
         let* leaf_width = float_range 1.0 200.0 in
         let* key_width = float_range 1.0 64.0 in
         return (rows, leaf_width, key_width)))
    (fun (rows, leaf_width, key_width) ->
      let rows = float_of_int rows in
      let model = Size_model.btree_pages ~rows ~leaf_width ~key_width () in
      let sim =
        C.Size_check.simulate_btree_pages ~rows ~leaf_width ~key_width ()
      in
      Float.abs (model -. sim) /. Float.max 1.0 model <= 0.02)

(* --- §3.3.2 bound soundness over TPC-H relaxations -------------------------- *)

let tpch = lazy (
  let cat = W.Tpch.catalog ~scale:0.01 () in
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

let tpch_bound_context cat config config' tr =
  T.Cost_bound.make_context cat
    ~cbv:(fun v ->
      (O.Optimizer.optimize cat Config.empty
         { Query.body = View.definition v; order_by = [] })
        .cost)
    ~new_config:config' [ (config, tr) ]

(* the central §3.3.2 claim on a real workload: for any relaxation of the
   TPC-H optimal configuration, the bound dominates the re-optimized cost *)
let prop_bound_sound_tpch =
  QCheck.Test.make ~name:"query_bound >= re-optimized cost (TPC-H)" ~count:100
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
          let ctx = tpch_bound_context cat optimal config' tr in
          if not (T.Cost_bound.plan_affected ctx plan) then true
          else begin
            let bound =
              T.Cost_bound.query_bound ~order_by:sq.Query.order_by ctx plan
            in
            let actual =
              (O.Whatif.plan_select whatif config' ~qid sq).O.Plan.cost
            in
            bound >= actual -. (1e-6 *. Float.max 1.0 actual)
          end
      end)

(* --- structural invariants under random transformation sequences ----------- *)

let prop_transforms_preserve_invariants =
  QCheck.Test.make
    ~name:"transform sequences preserve configuration invariants" ~count:100
    (QCheck.pair arb_config
       (QCheck.make QCheck.Gen.(list_size (int_range 1 5) (int_bound 10_000))))
    (fun (config, picks) ->
      let cat = Lazy.force cat in
      let est _ = 1000.0 in
      QCheck.assume (C.Invariants.check cat config = []);
      let rec go config = function
        | [] -> true
        | pick :: rest -> (
          match T.Transform.enumerate config with
          | [] -> true
          | transforms -> (
            let tr = List.nth transforms (pick mod List.length transforms) in
            match T.Transform.apply ~estimate_rows:est config tr with
            | None -> go config rest
            | Some config' ->
              C.Invariants.check cat config' = [] && go config' rest))
      in
      go config picks)

(* Regression: a merge join can consume the key order an index scan
   delivers *incidentally* (the access's request records no order).  The
   §3.3.2 bound used to patch such an access with an unordered
   replacement, producing an invalid plan and a bound *below* the true
   re-optimized cost.  TPC-H Q12 under a config where orders is joined by
   a scan of ix[orders](o_orderkey) reproduces it: merging that index away
   must still yield a sound bound. *)
let test_bound_survives_merge_join_order () =
  let cat, _, _, _, _ = Lazy.force tpch in
  let prepared = T.Search.prepare (W.Tpch.workload_subset [ 3; 10; 12 ]) in
  let whatif = O.Whatif.create cat in
  let plans = Array.map (fun (qid, _, sq) -> (qid, sq, ())) prepared.selects_arr in
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
  let est _ = Alcotest.fail "no views involved" in
  match T.Transform.apply ~estimate_rows:est config tr with
  | None -> Alcotest.fail "merge unexpectedly inapplicable"
  | Some config' ->
    let checked = ref 0 in
    Array.iter
      (fun (qid, sq, _) ->
        let plan = O.Whatif.plan_select whatif config ~qid sq in
        let ctx = tpch_bound_context cat config config' tr in
        if T.Cost_bound.plan_affected ctx plan then begin
          incr checked;
          let bound =
            T.Cost_bound.query_bound ~order_by:sq.Query.order_by ctx plan
          in
          let actual =
            (O.Whatif.plan_select whatif config' ~qid sq).O.Plan.cost
          in
          if bound < actual -. (1e-6 *. actual) then
            Alcotest.failf "%s: bound %.3f below re-optimized cost %.3f" qid
              bound actual
        end)
      plans;
    Alcotest.(check bool) "at least one plan affected" true (!checked > 0)

(* The swapped-argument variant: merged keeps o_orderkey as its key, so it
   *can* deliver the merge join's order — but only if the optimizer asks for
   it.  Before the DP considered join-key interesting orders, the cheapest
   *unordered* orders access under C' (the distractor below) delivered the
   wrong order, the merge-join plan the bound patches to was outside the
   optimizer's plan space, and the bound undercut the re-optimized cost. *)
let test_bound_survives_swapped_merge () =
  let cat, _, _, _, _ = Lazy.force tpch in
  let prepared = T.Search.prepare (W.Tpch.workload_subset [ 12 ]) in
  let whatif = O.Whatif.create cat in
  let i1 = Index.on "orders" [ "o_orderkey" ] in
  let i2 =
    Index.on "orders" [ "o_orderdate" ]
      ~suffix:[ "o_custkey"; "o_orderkey"; "o_shippriority" ]
  in
  let distractor =
    Index.on "orders" [ "o_orderdate" ] ~suffix:[ "o_custkey"; "o_orderkey" ]
  in
  let lineitem =
    Index.on "lineitem"
      [ "l_shipmode"; "l_receiptdate" ]
      ~suffix:[ "l_commitdate"; "l_orderkey"; "l_shipdate" ]
  in
  let config = Config.of_indexes [ i1; i2; distractor; lineitem ] in
  let tr = T.Transform.Merge_indexes (i1, i2) in
  let est _ = Alcotest.fail "no views involved" in
  match T.Transform.apply ~estimate_rows:est config tr with
  | None -> Alcotest.fail "merge unexpectedly inapplicable"
  | Some config' ->
    let checked = ref 0 in
    Array.iter
      (fun (qid, _, sq) ->
        let plan = O.Whatif.plan_select whatif config ~qid sq in
        let ctx = tpch_bound_context cat config config' tr in
        if T.Cost_bound.plan_affected ctx plan then begin
          incr checked;
          let bound =
            T.Cost_bound.query_bound ~order_by:sq.Query.order_by ctx plan
          in
          let actual =
            (O.Whatif.plan_select whatif config' ~qid sq).O.Plan.cost
          in
          if bound < actual -. (1e-6 *. actual) then
            Alcotest.failf "%s: bound %.3f below re-optimized cost %.3f" qid
              bound actual
        end)
      prepared.selects_arr;
    Alcotest.(check bool) "at least one plan affected" true (!checked > 0)

(* An access's output cardinality must be a function of the request alone,
   never of the physical path chosen — the §3.3.2 patching argument keeps
   the rest of the plan (costed on the old access's cardinality) unchanged.
   Two indexes keyed on the same column used to break this: their rid
   intersection multiplied both seeks' selectivities, double-counting the
   shared predicate. *)
let test_access_cardinality_path_independent () =
  let cat, _, _, _, _ = Lazy.force tpch in
  let i1 =
    Index.on "lineitem" [ "l_shipdate" ]
      ~suffix:[ "l_discount"; "l_extendedprice"; "l_quantity" ]
  in
  let i2 =
    Index.on "lineitem" [ "l_shipdate" ] ~suffix:[ "l_extendedprice"; "l_orderkey" ]
  in
  let request =
    O.Request.make ~rel:"lineitem"
      ~ranges:
        [
          Relax_sql.Predicate.range
            ~lo:(Relax_sql.Predicate.bound (VDate 9497))
            ~hi:(Relax_sql.Predicate.bound ~inclusive:false (VDate 9527))
            (c "lineitem" "l_shipdate");
        ]
      ~cols:
        (Column_set.of_list
           [ c "lineitem" "l_extendedprice"; c "lineitem" "l_partkey" ])
      ()
  in
  let rows_under config =
    (O.Access_path.best (O.Env.make cat config) request).O.Plan.rows
  in
  let heap_rows = rows_under Config.empty in
  let indexed_rows = rows_under (Config.of_indexes [ i1; i2 ]) in
  Alcotest.(check (float 1e-6))
    "cardinality independent of access path" heap_rows indexed_rows

(* --- unit tests ------------------------------------------------------------- *)

let test_invariants_catch_double_clustered () =
  let cat = Lazy.force cat in
  let config =
    Config.of_indexes
      [ Index.on "r" ~clustered:true [ "a" ]; Index.on "r" ~clustered:true [ "b" ] ]
  in
  let violations = C.Invariants.check cat config in
  Alcotest.(check bool) "detected" true
    (List.exists
       (fun (v : C.Invariants.violation) -> v.rule = "clustered_unique")
       violations)

let test_invariants_catch_unknown_column () =
  let cat = Lazy.force cat in
  let config = Config.of_indexes [ Index.on "r" [ "nonexistent" ] ] in
  let violations = C.Invariants.check cat config in
  Alcotest.(check bool) "detected" true
    (List.exists
       (fun (v : C.Invariants.violation) -> v.rule = "unknown_column")
       violations)

(* a view definition is held to the catalog as an index is: every table
   it reads is a catalog table, every column it names exists there *)
let test_invariants_catch_unknown_view_source () =
  let cat = Lazy.force cat in
  let view select tables =
    View.make (Query.make_spjg ~select:[ Query.Item_col select ] ~tables ())
  in
  let rules config =
    List.map (fun (v : C.Invariants.violation) -> v.rule)
      (C.Invariants.check cat config)
  in
  let with_view v = Config.add_view Config.empty v ~rows:10.0 in
  Alcotest.(check (list string))
    "unknown table" [ "unknown_table" ]
    (rules (with_view (view (c "zz" "a") [ "zz" ])));
  Alcotest.(check (list string))
    "unknown column" [ "unknown_column" ]
    (rules (with_view (view (c "r" "nonexistent") [ "r" ])));
  Alcotest.(check (list string))
    "well-formed view" [] (rules (with_view (view (c "r" "a") [ "r" ])))

let test_invariants_accept_wellformed () =
  let cat = Lazy.force cat in
  let config =
    Config.of_indexes
      [ Index.on "r" ~clustered:true [ "a" ]; Index.on "s" [ "x" ] ~suffix:[ "y" ] ]
  in
  Alcotest.(check int) "no violations" 0
    (List.length (C.Invariants.check cat config))

let test_drift_bucketing () =
  let d = C.Drift.create () in
  List.iter (C.Drift.add d) [ 0.3; 0.95; 1.0; 1.005; 1.5; 50.0; Float.nan ];
  Alcotest.(check int) "count includes non-finite" 7 (C.Drift.count d);
  let b = C.Drift.buckets d in
  let get l = List.assoc l b in
  Alcotest.(check int) "<0.5" 1 (get "<0.5");
  Alcotest.(check int) "0.9-0.99" 1 (get "0.9-0.99");
  Alcotest.(check int) "1.0-1.01" 2 (get "1.0-1.01");
  Alcotest.(check int) "1.1-2" 1 (get "1.1-2");
  Alcotest.(check int) ">=10" 1 (get ">=10");
  Alcotest.(check int) "non-finite" 1 (get "non-finite")

(* bound-vs-whatif comparisons go through the Cost_bound epsilon
   helpers: a bound within relative [bound_epsilon] of the re-optimized
   cost must not surface as a spurious check.violation, while a genuine
   violation still must *)
let test_bound_epsilon_tolerance () =
  let tol = C.Checker.default_tolerances in
  Alcotest.(check bool) "dominating bound ok" true
    (C.Checker.bound_ok tol ~bound:101.0 ~actual:100.0);
  Alcotest.(check bool) "exactly-met bound ok" true
    (C.Checker.bound_ok tol ~bound:100.0 ~actual:100.0);
  Alcotest.(check bool) "within-epsilon accumulation noise ok" true
    (C.Checker.bound_ok tol ~bound:(100.0 *. (1.0 -. 1e-8)) ~actual:100.0);
  Alcotest.(check bool) "violation at scale reported" false
    (C.Checker.bound_ok tol ~bound:99.0 ~actual:100.0);
  Alcotest.(check bool) "violation near zero reported" false
    (C.Checker.bound_ok tol ~bound:0.0 ~actual:1e-3)

(* end to end: a checked tuning run on the small catalog reports zero
   violations and visits every iteration *)
let test_checked_run_clean () =
  let cat = Lazy.force cat in
  let workload =
    List.mapi
      (fun i s -> Query.entry (Printf.sprintf "q%d" (i + 1)) (Relax_sql.Parser.statement s))
      [
        "SELECT r.a, r.b FROM r WHERE r.a = 5";
        "SELECT r.b, r.e FROM r WHERE r.b = 7 AND r.d < 10";
        "SELECT r.a, r.cc FROM r WHERE r.a < 50 ORDER BY r.cc";
        "SELECT r.d, SUM(r.a) FROM r GROUP BY r.d";
        "SELECT s.x, s.y FROM s WHERE s.x = 3";
      ]
  in
  let checker =
    C.Checker.create cat ~workload ~protected:Config.empty ()
  in
  let opts =
    {
      (T.Tuner.default_options ~space_budget:(4.0 *. 1024.0 *. 1024.0) ())
      with
      max_iterations = 30;
      on_iteration = Some (C.Checker.hook checker);
    }
  in
  let r = T.Tuner.tune cat workload opts in
  let report = C.Checker.report checker in
  Alcotest.(check int) "every iteration checked" r.iterations
    report.iterations_checked;
  if not (C.Checker.ok report) then
    Alcotest.failf "unexpected violations:@.%a" C.Checker.pp_report report

(* the checker's oracles must not leak probes into the run's recorder: a
   checked and an unchecked run produce identical metrics *)
let test_checker_does_not_pollute_metrics () =
  let cat = Lazy.force cat in
  let workload =
    [ Query.entry "q1" (Relax_sql.Parser.statement "SELECT r.a FROM r WHERE r.a = 5") ]
  in
  let run ~with_checker =
    let checker =
      if with_checker then
        Some (C.Checker.create cat ~workload ~protected:Config.empty ())
      else None
    in
    let opts =
      {
        (T.Tuner.default_options ~space_budget:infinity ()) with
        max_iterations = 10;
        on_iteration = Option.map C.Checker.hook checker;
      }
    in
    let r = T.Tuner.tune cat workload opts in
    (r.metrics.what_if_calls, r.iterations)
  in
  let whatif1, it1 = run ~with_checker:false in
  let whatif2, it2 = run ~with_checker:true in
  Alcotest.(check int) "same iterations" it1 it2;
  Alcotest.(check int) "same what-if calls" whatif1 whatif2

(* §3.5 multi-transformation steps, on the ablation's TPC-H setup at
   three transformations per iteration: every evaluated node's plans read
   only structures its configuration holds.  A step costed from its first
   transformation alone keeps plans on indexes a later one removed. *)
let test_multi_step_plans_valid () =
  let cat = W.Tpch.catalog ~scale:0.02 () in
  let workload = W.Tpch.workload_subset [ 1; 3; 5; 6; 10; 12; 14; 15 ] in
  let checker = C.Checker.create cat ~workload ~protected:Config.empty () in
  let multi = ref 0 in
  let hook (r : T.Search.iteration_report) =
    (match (r.it_applied, r.it_result) with
    | Some applied, Some n
      when Config.fingerprint applied <> Config.fingerprint n.config ->
      incr multi
    | _ -> ());
    C.Checker.hook checker r
  in
  let opts =
    {
      (T.Tuner.default_options ~mode:T.Tuner.Indexes_only
         ~space_budget:(1.6 *. Config.total_bytes cat Config.empty)
         ())
      with
      max_iterations = 250;
      transforms_per_iteration = 3;
      on_iteration = Some hook;
    }
  in
  ignore (T.Tuner.tune cat workload opts);
  let report = C.Checker.report checker in
  Alcotest.(check bool) "multi-transformation nodes evaluated" true (!multi > 0);
  match
    List.filter
      (fun (v : C.Checker.violation) -> v.rule = "plan_validity")
      report.violations
  with
  | [] -> ()
  | vs ->
    Alcotest.failf "%d plan_validity violations, first: %a" (List.length vs)
      C.Checker.pp_violation (List.hd vs)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_size_monotone_rows;
    QCheck_alcotest.to_alcotest prop_size_monotone_suffix;
    QCheck_alcotest.to_alcotest prop_size_simulation_agrees;
    QCheck_alcotest.to_alcotest prop_bound_sound_tpch;
    QCheck_alcotest.to_alcotest prop_transforms_preserve_invariants;
    Alcotest.test_case "invariants: double clustered" `Quick
      test_invariants_catch_double_clustered;
    Alcotest.test_case "invariants: unknown column" `Quick
      test_invariants_catch_unknown_column;
    Alcotest.test_case "invariants: unknown view table or column" `Quick
      test_invariants_catch_unknown_view_source;
    Alcotest.test_case "invariants: well-formed ok" `Quick
      test_invariants_accept_wellformed;
    Alcotest.test_case "drift: bucketing" `Quick test_drift_bucketing;
    Alcotest.test_case "bound: merge-join consumed order" `Quick
      test_bound_survives_merge_join_order;
    Alcotest.test_case "bound: swapped merge interesting order" `Quick
      test_bound_survives_swapped_merge;
    Alcotest.test_case "access cardinality path-independent" `Quick
      test_access_cardinality_path_independent;
    Alcotest.test_case "bound: epsilon tolerance" `Quick
      test_bound_epsilon_tolerance;
    Alcotest.test_case "checker: clean run" `Quick test_checked_run_clean;
    Alcotest.test_case "checker: no metric pollution" `Quick
      test_checker_does_not_pollute_metrics;
    Alcotest.test_case "checker: multi-transformation plans valid" `Quick
      test_multi_step_plans_valid;
  ]
