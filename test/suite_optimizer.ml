(** Tests for the optimizer: access-path selection (the Figure 1 plan
    shapes), join enumeration, view matching, what-if costing. *)

open Relax_sql.Types
module Index = Relax_physical.Index
module View = Relax_physical.View
module Config = Relax_physical.Config
module Query = Relax_sql.Query
module Parser = Relax_sql.Parser
module O = Relax_optimizer

let c = Column.make

let cat = lazy (Fixtures.small_catalog ())

let optimize ?(config = Config.empty) s =
  O.Optimizer.optimize (Lazy.force cat) config (Fixtures.parse_select s)

let cost ?config s = (optimize ?config s).cost

let test_scan_baseline () =
  let p = optimize "SELECT r.a FROM r WHERE r.a < 100" in
  Alcotest.(check bool) "positive cost" true (p.cost > 0.0);
  Alcotest.(check bool) "uses no index" true (O.Plan.index_usages p = [])

let test_index_speeds_up_selective () =
  let q = "SELECT r.a, r.b FROM r WHERE r.a = 5" in
  let base = cost q in
  let config = Config.of_indexes [ Index.on "r" [ "a" ] ~suffix:[ "b" ] ] in
  let with_ix = cost ~config q in
  Alcotest.(check bool) "index wins" true (with_ix < base /. 5.0)

let test_covering_avoids_lookup () =
  let q = "SELECT r.a, r.b, r.e FROM r WHERE r.a = 5" in
  let seek_only = Config.of_indexes [ Index.on "r" [ "a" ] ] in
  let covering = Config.of_indexes [ Index.on "r" [ "a" ] ~suffix:[ "b"; "e" ] ] in
  Alcotest.(check bool) "covering cheaper" true
    (cost ~config:covering q < cost ~config:seek_only q)

(* Figure 1(c): an index providing the requested order avoids a sort *)
let test_order_providing_index () =
  let q = "SELECT r.d, r.e FROM r WHERE r.a < 10 AND r.b < 10 ORDER BY r.d" in
  let sort_cfg = Config.of_indexes [ Index.on "r" [ "a" ] ~suffix:[ "b"; "d"; "e" ] ] in
  let order_cfg =
    Config.of_indexes [ Index.on "r" [ "d" ] ~suffix:[ "a"; "b"; "e" ] ]
  in
  let p_order = optimize ~config:order_cfg q in
  (* the order-providing plan must not contain a sort *)
  let rec has_sort (p : O.Plan.t) =
    match p.node with
    | Sort _ -> true
    | Access { input; _ } -> has_sort input
    | Filter { input; _ } | Rid_lookup { input; _ } -> has_sort input
    | Rid_intersect (a, b) -> has_sort a || has_sort b
    | Hash_join { build; probe; _ } -> has_sort build || has_sort probe
    | Merge_join { left; right; _ } -> has_sort left || has_sort right
    | Nl_join { outer; inner; _ } -> has_sort outer || has_sort inner
    | Group { input; _ } -> has_sort input
    | Seq_scan _ | Index_scan _ | Index_seek _ | Rid_union _ -> false
  in
  Alcotest.(check bool) "no sort with d-index" false (has_sort p_order);
  Alcotest.(check bool) "sort with a-index" true
    (has_sort (optimize ~config:sort_cfg q))

(* Figure 1(a): intersection of two selective single-column indexes *)
let test_index_intersection_available () =
  let q = "SELECT r.d FROM r WHERE r.a = 5 AND r.b = 7" in
  let config = Config.of_indexes [ Index.on "r" [ "a" ]; Index.on "r" [ "b" ] ] in
  let p = optimize ~config q in
  (* both single-column indexes are usable; either an intersection or a
     single seek with lookup must beat the heap scan *)
  Alcotest.(check bool) "beats scan" true (p.cost < cost q);
  Alcotest.(check bool) "uses an index" true (O.Plan.index_usages p <> [])

let test_join_uses_index_nlj () =
  let q = "SELECT r.a, s.y FROM r, s WHERE r.sid = s.id AND r.a = 3" in
  let config =
    Config.of_indexes
      [ Index.on "r" [ "a" ] ~suffix:[ "sid" ]; Index.on "s" [ "id" ] ~suffix:[ "y" ] ]
  in
  Alcotest.(check bool) "indexes help join" true (cost ~config q < cost q)

let test_three_way_join () =
  let q =
    "SELECT r.a, s.y, t.z FROM r, s, t WHERE r.sid = s.id AND r.tid = t.id \
     AND r.b = 1"
  in
  let p = optimize q in
  Alcotest.(check bool) "plan exists" true (p.cost > 0.0)

let test_group_by_streaming_with_index () =
  let q = "SELECT r.a, SUM(r.b) FROM r GROUP BY r.a" in
  let config = Config.of_indexes [ Index.on "r" [ "a" ] ~suffix:[ "b" ] ] in
  Alcotest.(check bool) "index helps grouping" true (cost ~config q < cost q)

let test_clustered_promotion_effect () =
  let q = "SELECT r.a, r.b, r.cc, r.e FROM r WHERE r.a BETWEEN 1 AND 3" in
  let sec = Config.of_indexes [ Index.on "r" [ "a" ] ] in
  let clu = Config.of_indexes [ Index.on "r" ~clustered:true [ "a" ] ] in
  (* clustered index covers everything: no rid lookups *)
  Alcotest.(check bool) "clustered at least as good" true
    (cost ~config:clu q <= cost ~config:sec q)

(* --- view matching ---------------------------------------------------- *)

let view_of s =
  match Parser.statement s with
  | Query.Select q -> View.make q.body
  | _ -> Alcotest.fail "expected select"

let with_view ?(rows = 1000.0) v = Config.add_view Config.empty v ~rows

let add_clustered_on_view cfg v =
  (* every simulated view carries a clustered index over its outputs *)
  let outputs = View.outputs v in
  let keys = [ View.column_of_item v (snd (List.hd outputs)) ] in
  Config.add_index cfg (Index.make ~clustered:true ~keys ~suffix:Column_set.empty ())

let test_view_exact_match () =
  let q = "SELECT r.a, s.y FROM r, s WHERE r.sid = s.id AND r.a < 100" in
  let v = view_of q in
  let config = add_clustered_on_view (with_view v) v in
  let p = optimize ~config q in
  Alcotest.(check bool) "uses the view" true (O.Plan.uses_view p v);
  Alcotest.(check bool) "cheaper than base" true (p.cost < cost q)

let test_view_with_residual_predicate () =
  let v = view_of "SELECT r.a, s.y FROM r, s WHERE r.sid = s.id" in
  let q = "SELECT r.a, s.y FROM r, s WHERE r.sid = s.id AND r.a < 5" in
  let config = add_clustered_on_view (with_view ~rows:100_000.0 v) v in
  let p = optimize ~config q in
  Alcotest.(check bool) "view matched with residual" true (O.Plan.uses_view p v)

(* A simulated view is configuration state: the environment answers its
   columns from the configuration's view and row estimate, and the catalog
   never learns of it. *)
let test_views_are_configuration_state () =
  let cat = Lazy.force cat in
  let v = view_of "SELECT r.a, COUNT(*) FROM r GROUP BY r.a" in
  let count_col =
    View.column_of_item v (Query.Item_agg (Count, None))
  in
  let env = O.Env.make cat (with_view ~rows:100.0 v) in
  Alcotest.(check bool)
    "catalog has no statistics for the view column" true
    (Relax_catalog.Catalog.col_stats_opt cat count_col = None);
  Alcotest.(check bool)
    "catalog has no view table" false
    (Relax_catalog.Catalog.mem_table cat (View.name v));
  Alcotest.(check (list string))
    "columns_of lists the view outputs"
    (List.map fst (View.outputs v))
    (List.map (fun (col : column) -> col.col) (O.Env.columns_of env (View.name v)));
  let env' = O.Env.make cat (with_view ~rows:10_000.0 v) in
  Fixtures.check_float "COUNT max_v at 100 rows" 100.0
    (O.Env.col_stats env count_col).max_v;
  Fixtures.check_float "COUNT max_v at 10,000 rows" 10_000.0
    (O.Env.col_stats env' count_col).max_v

let test_view_wrong_tables_no_match () =
  let v = view_of "SELECT r.a FROM r WHERE r.a < 5" in
  let q = "SELECT r.a, s.y FROM r, s WHERE r.sid = s.id" in
  let config = add_clustered_on_view (with_view v) v in
  let p = optimize ~config q in
  Alcotest.(check bool) "no match" false (O.Plan.uses_view p v)

let test_view_tighter_range_no_match () =
  (* view keeps a<5 but the query needs a<100: view misses rows *)
  let v = view_of "SELECT r.a, r.b FROM r WHERE r.a < 5" in
  let q = "SELECT r.a, r.b FROM r WHERE r.a < 100" in
  let config = add_clustered_on_view (with_view v) v in
  let p = optimize ~config q in
  Alcotest.(check bool) "no match" false (O.Plan.uses_view p v)

let test_grouped_view_serves_coarser_grouping () =
  let v =
    view_of "SELECT r.a, r.d, SUM(r.b) FROM r GROUP BY r.a, r.d"
  in
  let q = "SELECT r.a, SUM(r.b) FROM r GROUP BY r.a" in
  let config = add_clustered_on_view (with_view ~rows:5000.0 v) v in
  let p = optimize ~config q in
  Alcotest.(check bool) "re-aggregation match" true (O.Plan.uses_view p v)

let test_grouped_view_rejects_spj () =
  let v = view_of "SELECT r.a, SUM(r.b) FROM r GROUP BY r.a" in
  let q = "SELECT r.a, r.b FROM r WHERE r.a < 10" in
  let config = add_clustered_on_view (with_view v) v in
  let p = optimize ~config q in
  Alcotest.(check bool) "no match" false (O.Plan.uses_view p v)

(* merge join exploits index-delivered order on both join sides *)
let test_merge_join_with_ordered_inputs () =
  let q = "SELECT r.sid, s.y FROM r, s WHERE r.sid = s.id" in
  let config =
    Config.of_indexes
      [ Index.on "r" [ "sid" ]; Index.on "s" [ "id" ] ~suffix:[ "y" ] ]
  in
  let p = optimize ~config q in
  let rec has_merge (pl : O.Plan.t) =
    match pl.node with
    | Merge_join _ -> true
    | Access { input; _ }
    | Filter { input; _ }
    | Rid_lookup { input; _ }
    | Sort { input; _ }
    | Group { input; _ } -> has_merge input
    | Rid_intersect (a, b)
    | Hash_join { build = a; probe = b; _ }
    | Nl_join { outer = a; inner = b; _ } -> has_merge a || has_merge b
    | Seq_scan _ | Index_scan _ | Index_seek _ | Rid_union _ -> false
  in
  Alcotest.(check bool) "merge join chosen" true (has_merge p)

(* the plan-template "unions": IN-list predicates seek once per value *)
let test_in_list_union_plan () =
  let q = "SELECT r.b FROM r WHERE r.cc IN (5, 100, 2000)" in
  let config = Config.of_indexes [ Index.on "r" [ "cc" ] ~suffix:[ "b" ] ] in
  let p = optimize ~config q in
  let rec has_union (pl : O.Plan.t) =
    match pl.node with
    | Rid_union _ -> true
    | Access { input; _ }
    | Filter { input; _ }
    | Rid_lookup { input; _ }
    | Sort { input; _ }
    | Group { input; _ } -> has_union input
    | Rid_intersect (a, b) -> has_union a || has_union b
    | Hash_join { build = a; probe = b; _ }
    | Merge_join { left = a; right = b; _ }
    | Nl_join { outer = a; inner = b; _ } -> has_union a || has_union b
    | Seq_scan _ | Index_scan _ | Index_seek _ -> false
  in
  Alcotest.(check bool) "uses a rid union" true (has_union p);
  Alcotest.(check bool) "beats the scan" true (p.cost < cost q)

let test_covering_index_scan_beats_heap () =
  (* no sargable predicate: a narrow covering index still beats scanning
     the wide heap *)
  let q = "SELECT r.a, r.b FROM r WHERE r.a + r.b = 7" in
  let config = Config.of_indexes [ Index.on "r" [ "a" ] ~suffix:[ "b" ] ] in
  let p = optimize ~config q in
  Alcotest.(check bool) "uses the index" true (O.Plan.index_usages p <> []);
  Alcotest.(check bool) "cheaper than heap" true (p.cost < cost q)

let test_order_by_desc_uses_index () =
  (* direction-insensitive order satisfaction: indexes scan both ways *)
  let q = "SELECT r.a, r.b FROM r WHERE r.a < 100 ORDER BY r.a DESC" in
  let config = Config.of_indexes [ Index.on "r" [ "a" ] ~suffix:[ "b" ] ] in
  let p = optimize ~config q in
  let rec has_sort (pl : O.Plan.t) =
    match pl.node with
    | Sort _ -> true
    | Access { input; _ } | Filter { input; _ } | Rid_lookup { input; _ }
    | Group { input; _ } -> has_sort input
    | Rid_intersect (a, b)
    | Hash_join { build = a; probe = b; _ }
    | Merge_join { left = a; right = b; _ }
    | Nl_join { outer = a; inner = b; _ } -> has_sort a || has_sort b
    | Seq_scan _ | Index_scan _ | Index_seek _ | Rid_union _ -> false
  in
  Alcotest.(check bool) "no sort needed" false (has_sort p)

let test_view_extra_columns_still_match () =
  (* the view exposes more than the query needs *)
  let v = view_of "SELECT r.a, r.b, r.d, s.y FROM r, s WHERE r.sid = s.id" in
  let q = "SELECT r.a FROM r, s WHERE r.sid = s.id AND r.b < 50" in
  let config = add_clustered_on_view (with_view ~rows:100_000.0 v) v in
  let p = optimize ~config q in
  Alcotest.(check bool) "matches with projection" true (O.Plan.uses_view p v)

let test_view_missing_residual_column_rejected () =
  (* query filters on a column the view does not expose: no compensation *)
  let v = view_of "SELECT r.a, s.y FROM r, s WHERE r.sid = s.id" in
  let q = "SELECT r.a FROM r, s WHERE r.sid = s.id AND r.b < 50" in
  let config = add_clustered_on_view (with_view ~rows:100_000.0 v) v in
  let p = optimize ~config q in
  Alcotest.(check bool) "no match" false (O.Plan.uses_view p v)

let test_view_other_predicate_structural_match () =
  (* the view's non-sargable conjunct must appear structurally in the query *)
  let v =
    view_of "SELECT r.a, r.b FROM r WHERE r.a < r.b"
  in
  let q_match = "SELECT r.a, r.b FROM r WHERE r.a < r.b AND r.a < 100" in
  let q_nomatch = "SELECT r.a, r.b FROM r WHERE r.a < 100" in
  let config = add_clustered_on_view (with_view ~rows:30_000.0 v) v in
  Alcotest.(check bool) "structural conjunct matches" true
    (O.Plan.uses_view (optimize ~config q_match) v);
  Alcotest.(check bool) "absent conjunct rejected" false
    (O.Plan.uses_view (optimize ~config q_nomatch) v)

let test_param_eq_seek_on_inner () =
  (* a tiny filtered outer joined to a large indexed inner: index
     nested-loop wins, and the inner access records its executions *)
  let q = "SELECT s.y, r.a FROM r, s WHERE r.sid = s.id AND s.x = 100" in
  let config =
    Config.of_indexes
      [
        Index.on "s" [ "x" ] ~suffix:[ "y"; "id" ];
        Index.on "r" [ "sid" ] ~suffix:[ "a" ];
      ]
  in
  let p = optimize ~config q in
  let rec nlj (pl : O.Plan.t) =
    match pl.node with
    | Nl_join { inner; _ } -> (
      match inner.node with
      | Access { info; _ } -> Some info
      | _ -> None)
    | Access { input; _ } | Filter { input; _ } | Rid_lookup { input; _ }
    | Sort { input; _ } | Group { input; _ } -> nlj input
    | Rid_intersect (a, b)
    | Hash_join { build = a; probe = b; _ }
    | Merge_join { left = a; right = b; _ } -> (
      match nlj a with Some x -> Some x | None -> nlj b)
    | Seq_scan _ | Index_scan _ | Index_seek _ | Rid_union _ -> None
  in
  match nlj p with
  | Some info ->
    Alcotest.(check bool) "inner access records executions" true
      (info.executions >= 1.0);
    Alcotest.(check bool) "inner seeks the join key" true (info.usages <> [])
  | None -> Alcotest.fail "expected an index nested-loop join" 

let test_order_through_join () =
  (* interesting orders: an order-providing index on the join's streamed
     side absorbs the top-level sort of the (much larger) join result *)
  let q =
    "SELECT r.a, s.y FROM r, s WHERE r.sid = s.id AND s.x < 400 ORDER BY r.a"
  in
  let base = optimize q in
  let config =
    Config.of_indexes [ Index.on "r" [ "a" ] ~suffix:[ "sid" ] ]
  in
  let p = optimize ~config q in
  Alcotest.(check bool) "order index helps the join query" true
    (p.cost < base.cost);
  Alcotest.(check bool) "ordered plan delivered" true
    (O.Access_path.order_satisfied ~delivered:p.out_order
       ~required:[ (c "r" "a", Asc) ])

(* --- hooks ------------------------------------------------------------- *)

let test_hooks_fire () =
  let index_reqs = ref 0 and view_reqs = ref 0 in
  let hooks =
    {
      O.Hooks.on_index_request = (fun _ -> incr index_reqs);
      on_view_request = (fun _ -> incr view_reqs);
    }
  in
  let q =
    Fixtures.parse_select
      "SELECT r.a, s.y FROM r, s WHERE r.sid = s.id AND r.a < 5"
  in
  let _ = O.Optimizer.optimize (Lazy.force cat) Config.empty ~hooks q in
  Alcotest.(check bool) "index requests fired" true (!index_reqs >= 2);
  Alcotest.(check bool) "view request fired" true (!view_reqs >= 1)

(* --- what-if layer ------------------------------------------------------ *)

let test_whatif_cache () =
  let w = O.Whatif.create (Lazy.force cat) in
  let q = Fixtures.parse_select "SELECT r.a FROM r WHERE r.a = 1" in
  let cfg = Config.of_indexes [ Index.on "s" [ "x" ] ] in
  let p1 = O.Whatif.plan_select w Config.empty ~qid:"q1" q in
  (* an index on an unrelated table must not trigger re-optimization *)
  let p2 = O.Whatif.plan_select w cfg ~qid:"q1" q in
  let calls, hits = O.Whatif.stats w in
  Alcotest.(check int) "one optimizer call" 1 calls;
  Alcotest.(check int) "one cache hit" 1 hits;
  Fixtures.check_float "same cost" p1.cost p2.cost

let test_update_costs_charged () =
  let w = O.Whatif.create (Lazy.force cat) in
  let workload =
    [
      Query.entry "u1"
        (Parser.statement "UPDATE r SET b = b + 1 WHERE a < 100");
    ]
  in
  let base = O.Whatif.workload_cost w Config.empty workload in
  let cfg = Config.of_indexes [ Index.on "r" [ "b" ] ] in
  let with_ix = O.Whatif.workload_cost w cfg workload in
  Alcotest.(check bool) "maintenance charged" true (with_ix > base)

let test_update_irrelevant_index_free () =
  let w = O.Whatif.create (Lazy.force cat) in
  let workload =
    [ Query.entry "u1" (Parser.statement "UPDATE r SET b = b + 1 WHERE a = 1") ]
  in
  (* the index on a helps find the rows and b is not in it: no maintenance *)
  let cfg = Config.of_indexes [ Index.on "r" [ "a" ] ] in
  let base = O.Whatif.workload_cost w Config.empty workload in
  let with_ix = O.Whatif.workload_cost w cfg workload in
  Alcotest.(check bool) "helpful index lowers update cost" true (with_ix < base)

(* --- properties --------------------------------------------------------- *)

let queries_for_props =
  [
    "SELECT r.a, r.b FROM r WHERE r.a = 5";
    "SELECT r.a, r.b, r.e FROM r WHERE r.a < 50 AND r.b = 2";
    "SELECT r.a, s.y FROM r, s WHERE r.sid = s.id AND r.a < 10";
    "SELECT r.a, SUM(r.b) FROM r WHERE r.d = 1 GROUP BY r.a";
    "SELECT r.d, r.e FROM r WHERE r.a < 10 ORDER BY r.d";
  ]

let arb_query = QCheck.(make (QCheck.Gen.oneofl queries_for_props))

let random_config rng =
  let cols = [ "a"; "b"; "cc"; "d"; "e"; "sid" ] in
  let n = 1 + Random.State.int rng 3 in
  let idx _ =
    let k = 1 + Random.State.int rng 2 in
    let keys =
      List.sort_uniq String.compare
        (List.init k (fun _ -> List.nth cols (Random.State.int rng (List.length cols))))
    in
    Index.on "r" keys
  in
  Config.of_indexes (List.init n idx)

let prop_more_indexes_never_hurt =
  (* the optimizer picks among alternatives: adding structures can only add
     alternatives, so estimated cost is monotone non-increasing *)
  QCheck.Test.make ~name:"adding indexes never raises plan cost" ~count:100
    (QCheck.pair arb_query QCheck.int) (fun (q, seed) ->
      let rng = Random.State.make [| seed |] in
      let cfg = random_config rng in
      let base = cost q in
      let augmented = cost ~config:cfg q in
      augmented <= base +. 1e-6)

let prop_cost_positive =
  QCheck.Test.make ~name:"plan costs are positive and finite" ~count:50
    arb_query (fun q ->
      let x = cost q in
      x > 0.0 && Float.is_finite x)

(* The selection key separates every request and sub-configuration that
   [best] can tell apart, and nothing else: a float constant past six
   significant digits and an order direction change it, an index on
   another relation does not. *)
let test_selection_key_scope () =
  let module P = Relax_sql.Predicate in
  let env config = O.Env.make (Lazy.force cat) config in
  let req ?(dir = Asc) x =
    O.Request.make ~rel:"r"
      ~ranges:[ P.range ~lo:(P.bound (VFloat x)) (c "r" "a") ]
      ~order:[ (c "r" "b", dir) ]
      ~cols:(Column_set.of_list [ c "r" "a"; c "r" "b" ])
      ()
  in
  let key ?(config = Config.empty) r =
    O.Access_path.selection_key (env config) r
  in
  let r0 = req 0.05000001 in
  Alcotest.(check bool) "equal requests, equal keys" true
    (String.equal (key r0) (key (req 0.05000001)));
  Alcotest.(check bool) "a float past %g" false
    (String.equal (key r0) (key (req 0.05000002)));
  Alcotest.(check bool) "an order direction" false
    (String.equal (key r0) (key (req ~dir:Desc 0.05000001)));
  let on_r = Config.of_indexes [ Index.on "r" [ "a" ] ] in
  Alcotest.(check bool) "an index on the relation" false
    (String.equal (key r0) (key ~config:on_r r0));
  let clustered = Config.of_indexes [ Index.on "r" ~clustered:true [ "a" ] ] in
  Alcotest.(check bool) "its clustered flag" false
    (String.equal (key ~config:on_r r0) (key ~config:clustered r0));
  Alcotest.(check bool) "an index elsewhere" true
    (String.equal (key ~config:on_r r0)
       (key ~config:(Config.add_index on_r (Index.on "s" [ "x" ])) r0))

let suite =
  [
    Alcotest.test_case "scan baseline" `Quick test_scan_baseline;
    Alcotest.test_case "selective index wins" `Quick test_index_speeds_up_selective;
    Alcotest.test_case "covering avoids lookup" `Quick test_covering_avoids_lookup;
    Alcotest.test_case "order-providing index (Fig 1c)" `Quick
      test_order_providing_index;
    Alcotest.test_case "index intersection (Fig 1a)" `Quick
      test_index_intersection_available;
    Alcotest.test_case "index NLJ" `Quick test_join_uses_index_nlj;
    Alcotest.test_case "three-way join" `Quick test_three_way_join;
    Alcotest.test_case "group-by with index" `Quick test_group_by_streaming_with_index;
    Alcotest.test_case "clustered promotion" `Quick test_clustered_promotion_effect;
    Alcotest.test_case "IN-list rid union" `Quick test_in_list_union_plan;
    Alcotest.test_case "merge join on ordered inputs" `Quick
      test_merge_join_with_ordered_inputs;
    Alcotest.test_case "covering scan beats heap" `Quick
      test_covering_index_scan_beats_heap;
    Alcotest.test_case "DESC order via index" `Quick test_order_by_desc_uses_index;
    Alcotest.test_case "view: extra columns" `Quick test_view_extra_columns_still_match;
    Alcotest.test_case "view: missing residual column" `Quick
      test_view_missing_residual_column_rejected;
    Alcotest.test_case "view: structural other conjunct" `Quick
      test_view_other_predicate_structural_match;
    Alcotest.test_case "NLJ inner executions" `Quick test_param_eq_seek_on_inner;
    Alcotest.test_case "order through join (interesting orders)" `Quick
      test_order_through_join;
    Alcotest.test_case "view: exact match" `Quick test_view_exact_match;
    Alcotest.test_case "view: residual predicate" `Quick
      test_view_with_residual_predicate;
    Alcotest.test_case "views are configuration state" `Quick
      test_views_are_configuration_state;
    Alcotest.test_case "view: FROM mismatch" `Quick test_view_wrong_tables_no_match;
    Alcotest.test_case "view: tighter range rejected" `Quick
      test_view_tighter_range_no_match;
    Alcotest.test_case "view: coarser regrouping" `Quick
      test_grouped_view_serves_coarser_grouping;
    Alcotest.test_case "view: grouped rejects SPJ" `Quick test_grouped_view_rejects_spj;
    Alcotest.test_case "hooks fire" `Quick test_hooks_fire;
    Alcotest.test_case "what-if cache" `Quick test_whatif_cache;
    Alcotest.test_case "update maintenance charged" `Quick test_update_costs_charged;
    Alcotest.test_case "update helpful index" `Quick test_update_irrelevant_index_free;
    Alcotest.test_case "selection key scope" `Quick test_selection_key_scope;
    QCheck_alcotest.to_alcotest prop_more_indexes_never_hurt;
    QCheck_alcotest.to_alcotest prop_cost_positive;
  ]
